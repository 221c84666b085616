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
//! panel product, `matvec_t_heads`, the transposing row-dot kernel).
//! Widening such a kernel changes which lanes share a register, never
//! what any lane computes, so every bit is kept. The row-dot kernel
//! (`fused::row_dots_into`: the forward weighting, the content dots and
//! the row norms) widens through `Lanes::load_transposed`, a `LANES ×
//! LANES` in-register transpose — 8 × 8 on the eight-lane types, 16 × 16
//! on `Avx512` — with its row and `k` tails cut at multiples of `LANES`;
//! on `Avx512` eight of the steps past the last whole block come from a
//! 16 × 8 transpose (`Lanes::load_transposed8`) and eight of the rows
//! from an 8 × 8 block on `Avx` (`Lanes::Half`); the rest of the rows run
//! the row kernel's own scalar expressions, whose four-column passes
//! start from `+0.0` and walk `k` in order just as a lane does. One kernel is eight lanes wide *by
//! definition* and runs on `Lanes::Half`, eight lanes on every tier (`Avx`
//! under `Avx512`): the softmax sums its exponentials into **eight**
//! partial sums, then adds those in a fixed tree — the order is part of
//! its definition.
//!
//! # Safety
//!
//! Every intrinsic here needs one fact: this CPU runs the tier's
//! instruction set. That fact is a value, a `Token<V>`: a zero-sized
//! proof that the CPU runs `V`'s instructions, which only `Tier::run`
//! makes, right after it asserts [`Tier::is_available`], and hands to the
//! kernel it runs (`Token::half` derives `V::Half`'s, which a CPU that
//! runs `V` runs too). Every constructor of a lane type — `zero`, `splat`,
//! `load`, `load_first`, `load_transposed`, `load_transposed8` — takes the
//! token, and the lane types' fields are private to this module, so a
//! vector of a tier's type exists only where a token did: holding one
//! proves the CPU, and every other op, taking a vector, is safe. (The few
//! private helpers that make a vector without a token take only values
//! computed from an existing one.) Memory stays bounds-checked: the
//! loads and stores slice their `LANES` elements first, or mask their
//! accesses to a slice of at most `LANES`, and the transposing loads —
//! the only ones that offset a raw pointer — assert that their block
//! lies inside the buffer. So the one `unsafe` block per intrinsic body
//! here cites the token, and every kernel body outside this module is
//! safe code. The design is the `pulp` crate's `Simd` trait's, whose
//! tokens prove a CPU feature the same way.

use std::marker::PhantomData;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{
    __m128, __m256, __m512, __m512i, __mmask16, _mm512_add_epi32, _mm512_add_ps, _mm512_and_si512,
    _mm512_andnot_si512, _mm512_castpd_ps, _mm512_castps256_ps512, _mm512_castps_pd,
    _mm512_castps_si512, _mm512_castsi512_ps, _mm512_cmp_ps_mask, _mm512_cvtepi32_ps,
    _mm512_div_ps, _mm512_insertf64x4, _mm512_loadu_ps, _mm512_mask_storeu_ps,
    _mm512_maskz_loadu_ps, _mm512_maskz_set1_epi32, _mm512_max_ps, _mm512_min_ps, _mm512_mul_ps,
    _mm512_or_si512, _mm512_roundscale_ps, _mm512_set1_ps, _mm512_setzero_ps,
    _mm512_shuffle_f32x4, _mm512_shuffle_ps, _mm512_slli_epi32, _mm512_sqrt_ps, _mm512_srli_epi32,
    _mm512_storeu_ps, _mm512_sub_ps, _mm512_ternarylogic_epi32, _mm512_unpackhi_ps,
    _mm512_unpacklo_ps,
    _mm256_add_ps, _mm256_and_ps, _mm256_andnot_ps, _mm256_blendv_ps, _mm256_castps128_ps256,
    _mm256_castps256_ps128, _mm256_castps_pd, _mm256_cmp_ps, _mm256_div_ps, _mm256_extractf128_ps,
    _mm256_insertf128_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps,
    _mm256_or_ps, _mm256_round_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_shuffle_ps,
    _mm256_sqrt_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps,
    _mm_add_epi32, _mm_castps_si128, _mm_castsi128_ps, _mm_cvtepi32_ps, _mm_loadu_ps,
    _mm_slli_epi32, _mm_srli_epi32, _CMP_EQ_OQ, _CMP_LT_OQ, _CMP_NEQ_UQ, _MM_FROUND_NO_EXC,
    _MM_FROUND_TO_ZERO,
};

/// Proof that this CPU runs `V`'s instruction set — zero-sized, made only
/// by [`Tier::run`] once it has checked the tier (see the module's
/// "Safety" section).
#[derive(Clone, Copy)]
pub(crate) struct Token<V>(PhantomData<V>);

impl<V: Lanes> Token<V> {
    /// The token of `V::Half`, which a CPU that runs `V` runs too.
    #[inline(always)]
    pub(crate) fn half(self) -> Token<V::Half> {
        Token(PhantomData)
    }
}

/// `LANES` `f32` lanes with the operations the crate's kernel bodies
/// need (see the [module docs](self)). Every arithmetic op is one rounded
/// IEEE operation per lane — what the scalar `+`, `-`, `*`, `sqrt` and
/// `trunc` compute — so a body written over `Lanes` keeps the bits of the
/// scalar code it transcribes. The constructors take the [`Token`] that
/// proves the CPU runs `Self`.
pub(crate) trait Lanes: Copy {
    /// Lanes per vector: 8 or 16.
    const LANES: usize;
    /// `LANES` vectors: a square block of a matrix, transposed.
    type Block: Copy + AsRef<[Self]>;
    /// An eight-lane type a CPU that runs `Self` also runs: `Self` on the
    /// eight-lane types, `Avx` on `Avx512` — for a remainder of eight rows
    /// too short for a sixteen-lane block, and for the softmax.
    type Half: Lanes;

    fn zero(cpu: Token<Self>) -> Self;
    fn splat(cpu: Token<Self>, v: f32) -> Self;
    /// The first `LANES` elements of `s` (panics if shorter).
    fn load(cpu: Token<Self>, s: &[f32]) -> Self;
    /// Writes the lanes to the first `LANES` elements of `d` (panics if
    /// shorter).
    fn store(self, d: &mut [f32]);
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    /// `self < o ? self : o` per lane — `o` wherever either is NaN, so a
    /// clamp that must keep a NaN puts its constant in `self`.
    fn min(self, o: Self) -> Self;
    /// `self > o ? self : o` per lane — `o` wherever either is NaN.
    fn max(self, o: Self) -> Self;
    /// Bitwise and.
    fn and(self, o: Self) -> Self;
    /// Bitwise or.
    fn or(self, o: Self) -> Self;
    /// Bitwise `!self & o`.
    fn andnot(self, o: Self) -> Self;
    /// All ones where `self == o` (false on NaN), all zeros elsewhere.
    fn eq_mask(self, o: Self) -> Self;
    /// All ones where `self != o` (true on NaN), all zeros elsewhere.
    fn ne_mask(self, o: Self) -> Self;
    /// All ones where `self < o` (false on NaN), all zeros elsewhere.
    fn lt_mask(self, o: Self) -> Self;
    /// `self · 2ⁿ` by adding `n` to the exponent field — `n` being the
    /// integer that `x + 1.5·2²³` leaves in the low mantissa bits of
    /// `magic`: `magic`'s bits shifted left by 23, integer-added to
    /// `self`'s. Exact while `self` and the result are both normal.
    fn scale_pow2(self, magic: Self) -> Self;
    /// The bits shifted right by 23, as a number: the biased exponent of
    /// a positive value.
    fn biased_exponent(self) -> Self;
    /// Rounds toward zero, keeping the sign of a zero result.
    fn trunc(self) -> Self;
    fn sqrt(self) -> Self;
    /// A `LANES × LANES` block of a row-major buffer, transposed: `rows`
    /// holds rows of `stride` values, and element `c` of the result holds
    /// `rows[r·stride + col + c]` in lane `r` (panics if the block's last
    /// element lies outside `rows`).
    fn load_transposed(cpu: Token<Self>, rows: &[f32], stride: usize, col: usize) -> Self::Block;
    /// A `LANES × 8` block, transposed as [`Lanes::load_transposed`] does:
    /// eight vectors, the columns `col..col + 8` of `LANES` rows. On the
    /// eight-lane types it is `load_transposed`.
    fn load_transposed8(cpu: Token<Self>, rows: &[f32], stride: usize, col: usize) -> [Self; 8];

    /// `acc + x * w` per lane: a rounded multiply, then a rounded add.
    #[inline(always)]
    fn mul_acc(acc: Self, x: Self, w: Self) -> Self {
        acc.add(x.mul(w))
    }

    /// `a` where this mask (all ones or all zeros per lane) is set, `b`
    /// elsewhere.
    #[inline(always)]
    fn select(self, a: Self, b: Self) -> Self {
        self.and(a).or(self.andnot(b))
    }

    /// The elements of `s` in the first lanes, zeros in the rest — a
    /// slice's tail as one padded vector (panics if `s` is longer than
    /// `LANES`).
    #[inline(always)]
    fn load_first(cpu: Token<Self>, s: &[f32]) -> Self {
        assert!(s.len() <= Self::LANES, "{TAIL_TOO_LONG}");
        let mut padded = [0.0f32; 16];
        padded[..s.len()].copy_from_slice(s);
        Self::load(cpu, &padded)
    }

    /// Writes the first `d.len()` lanes to `d` (panics if `d` is longer
    /// than `LANES`).
    #[inline(always)]
    fn store_first(self, d: &mut [f32]) {
        assert!(d.len() <= Self::LANES, "{TAIL_TOO_LONG}");
        let mut all = [0.0f32; 16];
        self.store(&mut all);
        d.copy_from_slice(&all[..d.len()]);
    }
}

/// What `load_first` and `store_first` say on every tier when handed a
/// slice longer than a vector.
const TAIL_TOO_LONG: &str = "a tail longer than a vector";

/// A kernel body generic over the lane type, run by [`Tier::run`] on the
/// tier it names.
pub(crate) trait Kernel {
    type Output;

    /// The body over `V`, which `cpu` proves this CPU runs —
    /// `#[inline(always)]` in every implementation, so it is compiled
    /// inside the tier's `#[target_feature]` entry.
    fn run<V: Lanes>(self, cpu: Token<V>) -> Self::Output;
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

    /// Runs `kernel` over this tier's `Lanes`, handing it the tier's
    /// [`Token`] — the only place one is made.
    ///
    /// # Panics
    ///
    /// Panics if this CPU does not run this tier.
    #[inline]
    pub(crate) fn run<K: Kernel>(self, kernel: K) -> K::Output {
        assert!(self.is_available(), "this CPU does not run the {} tier", self.name());
        match self {
            // SAFETY: the CPU runs AVX-512F (asserted above), so the `Token<Avx512>` is true.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { run_avx512(kernel, Token(PhantomData)) },
            // SAFETY: the CPU runs AVX (asserted above), so the `Token<Avx>` is true.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx => unsafe { run_avx(kernel, Token(PhantomData)) },
            _ => kernel.run(Token::<F32x8>(PhantomData)),
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The `Avx` entry of every [`Kernel`]: its body compiled for AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn run_avx<K: Kernel>(kernel: K, cpu: Token<Avx>) -> K::Output {
    kernel.run(cpu)
}

/// The `Avx512` entry of every [`Kernel`]: its body compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512<K: Kernel>(kernel: K, cpu: Token<Avx512>) -> K::Output {
    kernel.run(cpu)
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

impl Lanes for F32x8 {
    const LANES: usize = 8;
    type Block = [Self; 8];
    type Half = Self;

    #[inline(always)]
    fn zero(_: Token<Self>) -> Self {
        Self([0.0; 8])
    }
    #[inline(always)]
    fn splat(_: Token<Self>, v: f32) -> Self {
        Self([v; 8])
    }
    #[inline(always)]
    fn load(_: Token<Self>, s: &[f32]) -> Self {
        Self(s[..8].try_into().expect("F32x8::load needs 8 elements"))
    }
    #[inline(always)]
    fn store(self, d: &mut [f32]) {
        d[..8].copy_from_slice(&self.0);
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self.zip(o, |a, b| a * b)
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        self.zip(o, |a, b| a / b)
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        self.zip(o, |a, b| if a < b { a } else { b })
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        self.zip(o, |a, b| if a > b { a } else { b })
    }
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        self.zip(o, |a, b| f32::from_bits(a.to_bits() & b.to_bits()))
    }
    #[inline(always)]
    fn or(self, o: Self) -> Self {
        self.zip(o, |a, b| f32::from_bits(a.to_bits() | b.to_bits()))
    }
    #[inline(always)]
    fn andnot(self, o: Self) -> Self {
        self.zip(o, |a, b| f32::from_bits(!a.to_bits() & b.to_bits()))
    }
    #[inline(always)]
    fn eq_mask(self, o: Self) -> Self {
        self.zip(o, |a, b| f32::from_bits(if a == b { u32::MAX } else { 0 }))
    }
    #[inline(always)]
    fn ne_mask(self, o: Self) -> Self {
        self.zip(o, |a, b| f32::from_bits(if a != b { u32::MAX } else { 0 }))
    }
    #[inline(always)]
    fn lt_mask(self, o: Self) -> Self {
        self.zip(o, |a, b| f32::from_bits(if a < b { u32::MAX } else { 0 }))
    }
    #[inline(always)]
    fn scale_pow2(self, magic: Self) -> Self {
        self.zip(magic, |p, m| f32::from_bits(p.to_bits().wrapping_add(m.to_bits() << 23)))
    }
    #[inline(always)]
    fn biased_exponent(self) -> Self {
        Self(self.0.map(|v| (v.to_bits() >> 23) as f32))
    }
    #[inline(always)]
    fn trunc(self) -> Self {
        Self(self.0.map(f32::trunc))
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        Self(self.0.map(f32::sqrt))
    }
    #[inline(always)]
    fn load_transposed(_: Token<Self>, rows: &[f32], stride: usize, col: usize) -> [Self; 8] {
        assert!(7 * stride + col + 8 <= rows.len(), "8 x 8 block out of bounds");
        std::array::from_fn(|c| Self(std::array::from_fn(|r| rows[r * stride + col + c])))
    }
    #[inline(always)]
    fn load_transposed8(cpu: Token<Self>, rows: &[f32], stride: usize, col: usize) -> [Self; 8] {
        Self::load_transposed(cpu, rows, stride, col)
    }
}

/// [`Lanes::scale_pow2`] on four lanes. AVX (without AVX2) has no 256-bit
/// integer unit, so `Avx` runs this on its two 128-bit halves. SSE2 is
/// part of the x86_64 baseline, so these two need no token.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn scale_pow2_sse2(p: __m128, magic: __m128) -> __m128 {
    // SAFETY: SSE2 is part of the x86_64 baseline.
    unsafe {
        let n = _mm_slli_epi32::<23>(_mm_castps_si128(magic));
        _mm_castsi128_ps(_mm_add_epi32(_mm_castps_si128(p), n))
    }
}

/// [`Lanes::biased_exponent`] on four lanes (see [`scale_pow2_sse2`]).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn biased_exponent_sse2(v: __m128) -> __m128 {
    // SAFETY: SSE2 is part of the x86_64 baseline.
    unsafe { _mm_cvtepi32_ps(_mm_srli_epi32::<23>(_mm_castps_si128(v))) }
}

/// Eight lanes in one AVX register.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Avx(__m256);

// Every `unsafe` block below runs AVX intrinsics, whose one requirement —
// the CPU runs AVX — is what a `Token<Avx>` proves; a method on `self`
// holds one by the module's argument. The loads and the store slice their
// eight (or four) elements first, so the unaligned accesses stay in
// bounds.
#[cfg(target_arch = "x86_64")]
impl Lanes for Avx {
    const LANES: usize = 8;
    type Block = [Self; 8];
    type Half = Self;

    #[inline(always)]
    fn zero(_: Token<Self>) -> Self {
        // SAFETY: the `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_setzero_ps() })
    }
    #[inline(always)]
    fn splat(_: Token<Self>, v: f32) -> Self {
        // SAFETY: the `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_set1_ps(v) })
    }
    #[inline(always)]
    fn load(_: Token<Self>, s: &[f32]) -> Self {
        let s = &s[..8];
        // SAFETY: the `Token<Avx>`: the CPU runs AVX; `s` holds the eight values read.
        Avx(unsafe { _mm256_loadu_ps(s.as_ptr()) })
    }
    #[inline(always)]
    fn store(self, d: &mut [f32]) {
        let d = &mut d[..8];
        // SAFETY: `self` proves a `Token<Avx>`; `d` holds the eight values written.
        unsafe { _mm256_storeu_ps(d.as_mut_ptr(), self.0) }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_add_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_sub_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_mul_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_div_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_min_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_max_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_and_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn or(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_or_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn andnot(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_andnot_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn eq_mask(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_cmp_ps::<_CMP_EQ_OQ>(self.0, o.0) })
    }
    #[inline(always)]
    fn ne_mask(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_cmp_ps::<_CMP_NEQ_UQ>(self.0, o.0) })
    }
    #[inline(always)]
    fn lt_mask(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_cmp_ps::<_CMP_LT_OQ>(self.0, o.0) })
    }
    #[inline(always)]
    fn select(self, a: Self, b: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_blendv_ps(b.0, a.0, self.0) })
    }
    #[inline(always)]
    fn scale_pow2(self, magic: Self) -> Self {
        let (p, m) = (self.0, magic.0);
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        unsafe {
            let lo = scale_pow2_sse2(_mm256_castps256_ps128(p), _mm256_castps256_ps128(m));
            let hi = scale_pow2_sse2(_mm256_extractf128_ps::<1>(p), _mm256_extractf128_ps::<1>(m));
            Avx(_mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi))
        }
    }
    #[inline(always)]
    fn biased_exponent(self) -> Self {
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        unsafe {
            let lo = biased_exponent_sse2(_mm256_castps256_ps128(self.0));
            let hi = biased_exponent_sse2(_mm256_extractf128_ps::<1>(self.0));
            Avx(_mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi))
        }
    }
    #[inline(always)]
    fn trunc(self) -> Self {
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(self.0) })
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        // SAFETY: `self` proves a `Token<Avx>`: the CPU runs AVX.
        Avx(unsafe { _mm256_sqrt_ps(self.0) })
    }
    #[inline(always)]
    fn load_transposed(cpu: Token<Self>, rows: &[f32], stride: usize, col: usize) -> [Self; 8] {
        assert!(7 * stride + col + 8 <= rows.len(), "8 x 8 block out of bounds");
        // Rows `r` and `r + 4` share a register, one per 128-bit half, so
        // a 4 × 4 transpose inside each half (`unpck`, then `shufps`) is
        // the whole 8 × 8 transpose — no cross-half shuffle. (Plain loops,
        // no closures: a closure would not inherit the kernel entry's
        // target feature, and its intrinsics would stay calls.)
        let mut out = [Self::zero(cpu); 8];
        for q in 0..2 {
            let mut m = [Self::zero(cpu).0; 4];
            for (r, m) in m.iter_mut().enumerate() {
                // SAFETY: the `Token<Avx>`: the CPU runs AVX; rows `r` and
                // `r + 4 ≤ 7`, columns up to `col + 8` lie inside `rows` by
                // the assert above.
                *m = unsafe {
                    let at = rows.as_ptr().add(r * stride + col + 4 * q);
                    let lo = _mm256_castps128_ps256(_mm_loadu_ps(at));
                    _mm256_insertf128_ps::<1>(lo, _mm_loadu_ps(at.add(4 * stride)))
                };
            }
            // SAFETY: the `Token<Avx>`: the CPU runs AVX.
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
    #[inline(always)]
    fn load_transposed8(cpu: Token<Self>, rows: &[f32], stride: usize, col: usize) -> [Self; 8] {
        Self::load_transposed(cpu, rows, stride, col)
    }
}

/// Sixteen lanes in one AVX-512 register (AVX-512F only).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Avx512(__m512);

// Every `unsafe` block below runs AVX-512F intrinsics, whose one
// requirement — the CPU runs AVX-512F — is what a `Token<Avx512>` proves;
// a method on `self` holds one by the module's argument.
#[cfg(target_arch = "x86_64")]
impl Avx512 {
    /// All ones in the lanes `k` sets, zeros elsewhere — a compare's
    /// `__mmask16` as the lane mask `Lanes` works with. `k` comes from a
    /// compare of existing vectors.
    #[inline(always)]
    fn widen(k: __mmask16) -> Self {
        // SAFETY: `k` was computed from an `Avx512`, which proves a `Token<Avx512>`.
        Avx512(unsafe { _mm512_castsi512_ps(_mm512_maskz_set1_epi32(k, -1)) })
    }

    /// The lanes' bits as integers (AVX-512F has no `ps` bit operations).
    #[inline(always)]
    fn int(self) -> __m512i {
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        unsafe { _mm512_castps_si512(self.0) }
    }

    /// Integer lanes as `f32` bits; `v` comes from [`Avx512::int`].
    #[inline(always)]
    fn from_int(v: __m512i) -> Self {
        // SAFETY: `v` was computed from an `Avx512`, which proves a `Token<Avx512>`.
        Avx512(unsafe { _mm512_castsi512_ps(v) })
    }

    /// The mask of the first `n` lanes (panics unless `n ≤ 16`).
    #[inline(always)]
    fn first(n: usize) -> __mmask16 {
        assert!(n <= 16, "{TAIL_TOO_LONG}");
        ((1u32 << n) - 1) as __mmask16
    }
}

// The loads and the stores slice their sixteen elements first, or mask
// their accesses to the `n ≤ 16` elements of the slice (`first` asserts
// the bound; a masked-off lane is neither read nor written, and cannot
// fault), so every access stays in bounds.
#[cfg(target_arch = "x86_64")]
impl Lanes for Avx512 {
    const LANES: usize = 16;
    type Block = [Self; 16];
    // AVX-512F implies AVX.
    type Half = Avx;

    #[inline(always)]
    fn zero(_: Token<Self>) -> Self {
        // SAFETY: the `Token<Avx512>`: the CPU runs AVX-512F.
        Avx512(unsafe { _mm512_setzero_ps() })
    }
    #[inline(always)]
    fn splat(_: Token<Self>, v: f32) -> Self {
        // SAFETY: the `Token<Avx512>`: the CPU runs AVX-512F.
        Avx512(unsafe { _mm512_set1_ps(v) })
    }
    #[inline(always)]
    fn load(_: Token<Self>, s: &[f32]) -> Self {
        let s = &s[..16];
        // SAFETY: the `Token<Avx512>`: the CPU runs AVX-512F; `s` holds the sixteen values read.
        Avx512(unsafe { _mm512_loadu_ps(s.as_ptr()) })
    }
    #[inline(always)]
    fn store(self, d: &mut [f32]) {
        let d = &mut d[..16];
        // SAFETY: `self` proves a `Token<Avx512>`; `d` holds the sixteen values written.
        unsafe { _mm512_storeu_ps(d.as_mut_ptr(), self.0) }
    }
    #[inline(always)]
    fn load_first(_: Token<Self>, s: &[f32]) -> Self {
        let first = Self::first(s.len());
        // SAFETY: the `Token<Avx512>`: the CPU runs AVX-512F; only `s`'s lanes are read.
        Avx512(unsafe { _mm512_maskz_loadu_ps(first, s.as_ptr()) })
    }
    #[inline(always)]
    fn store_first(self, d: &mut [f32]) {
        let first = Self::first(d.len());
        // SAFETY: `self` proves a `Token<Avx512>`; only `d`'s lanes are written.
        unsafe { _mm512_mask_storeu_ps(d.as_mut_ptr(), first, self.0) }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Avx512(unsafe { _mm512_add_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Avx512(unsafe { _mm512_sub_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Avx512(unsafe { _mm512_mul_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Avx512(unsafe { _mm512_div_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Avx512(unsafe { _mm512_min_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Avx512(unsafe { _mm512_max_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Self::from_int(unsafe { _mm512_and_si512(self.int(), o.int()) })
    }
    #[inline(always)]
    fn or(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Self::from_int(unsafe { _mm512_or_si512(self.int(), o.int()) })
    }
    #[inline(always)]
    fn andnot(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Self::from_int(unsafe { _mm512_andnot_si512(self.int(), o.int()) })
    }
    #[inline(always)]
    fn eq_mask(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Self::widen(unsafe { _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(self.0, o.0) })
    }
    #[inline(always)]
    fn ne_mask(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Self::widen(unsafe { _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(self.0, o.0) })
    }
    #[inline(always)]
    fn lt_mask(self, o: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Self::widen(unsafe { _mm512_cmp_ps_mask::<_CMP_LT_OQ>(self.0, o.0) })
    }
    #[inline(always)]
    fn select(self, a: Self, b: Self) -> Self {
        // One `vpternlogd`: 0xCA is the truth table of `mask ? a : b`.
        let (mask, a, b) = (self.int(), a.int(), b.int());
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Self::from_int(unsafe { _mm512_ternarylogic_epi32::<0xCA>(mask, a, b) })
    }
    #[inline(always)]
    fn scale_pow2(self, magic: Self) -> Self {
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Self::from_int(unsafe {
            _mm512_add_epi32(self.int(), _mm512_slli_epi32::<23>(magic.int()))
        })
    }
    #[inline(always)]
    fn biased_exponent(self) -> Self {
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Avx512(unsafe { _mm512_cvtepi32_ps(_mm512_srli_epi32::<23>(self.int())) })
    }
    #[inline(always)]
    fn trunc(self) -> Self {
        // `roundscale` with zero fraction bits and round-toward-zero is
        // `trunc`, the sign of a zero result kept.
        const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Avx512(unsafe { _mm512_roundscale_ps::<TRUNC>(self.0) })
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        // SAFETY: `self` proves a `Token<Avx512>`: the CPU runs AVX-512F.
        Avx512(unsafe { _mm512_sqrt_ps(self.0) })
    }
    #[inline(always)]
    fn load_transposed(cpu: Token<Self>, rows: &[f32], stride: usize, col: usize) -> [Self; 16] {
        assert!(15 * stride + col + 16 <= rows.len(), "16 x 16 block out of bounds");
        // Three shuffle stages (plain loops, no closures, as for `Avx`):
        // `unpck` pairs rows, `shufps` makes each 128-bit lane a 4 × 4
        // transpose of four rows (lane `q` holds columns `4q..4q + 4`),
        // and two rounds of `shuf_f32x4` gather the four row groups of one
        // column into one register.
        let mut out = [Self::zero(cpu); 16];
        let mut r = [Self::zero(cpu).0; 16];
        for (i, r) in r.iter_mut().enumerate() {
            // SAFETY: the `Token<Avx512>`: the CPU runs AVX-512F; row `i ≤
            // 15`, columns up to `col + 16` lie inside `rows` by the assert
            // above.
            *r = unsafe { _mm512_loadu_ps(rows.as_ptr().add(i * stride + col)) };
        }
        // SAFETY: the `Token<Avx512>`: the CPU runs AVX-512F.
        unsafe {
            let mut t = r;
            for p in 0..8 {
                t[2 * p] = _mm512_unpacklo_ps(r[2 * p], r[2 * p + 1]);
                t[2 * p + 1] = _mm512_unpackhi_ps(r[2 * p], r[2 * p + 1]);
            }
            // Afterwards lane `q` of `r[4g + c]` holds column `4q + c` of
            // rows `4g..4g + 4`.
            for g in 0..4 {
                let (a, b, c, d) = (t[4 * g], t[4 * g + 1], t[4 * g + 2], t[4 * g + 3]);
                r[4 * g] = _mm512_shuffle_ps::<0x44>(a, c);
                r[4 * g + 1] = _mm512_shuffle_ps::<0xEE>(a, c);
                r[4 * g + 2] = _mm512_shuffle_ps::<0x44>(b, d);
                r[4 * g + 3] = _mm512_shuffle_ps::<0xEE>(b, d);
            }
            // Column `4q + c` sits in lane `q` of `r[c]`, `r[4 + c]`,
            // `r[8 + c]` and `r[12 + c]`: lanes 0 and 2 pair up, then 1
            // and 3.
            let (mut even, mut odd) = ([r[0]; 8], [r[0]; 8]);
            for c in 0..4 {
                for h in 0..2 {
                    let (a, b) = (r[8 * h + c], r[8 * h + 4 + c]);
                    even[2 * c + h] = _mm512_shuffle_f32x4::<0x88>(a, b);
                    odd[2 * c + h] = _mm512_shuffle_f32x4::<0xDD>(a, b);
                }
            }
            // Ascending columns, so a caller consuming them in order keeps
            // few registers live.
            for c in 0..4 {
                out[c] = Avx512(_mm512_shuffle_f32x4::<0x88>(even[2 * c], even[2 * c + 1]));
            }
            for c in 0..4 {
                out[4 + c] = Avx512(_mm512_shuffle_f32x4::<0x88>(odd[2 * c], odd[2 * c + 1]));
            }
            for c in 0..4 {
                out[8 + c] = Avx512(_mm512_shuffle_f32x4::<0xDD>(even[2 * c], even[2 * c + 1]));
            }
            for c in 0..4 {
                out[12 + c] = Avx512(_mm512_shuffle_f32x4::<0xDD>(odd[2 * c], odd[2 * c + 1]));
            }
        }
        out
    }
    #[inline(always)]
    fn load_transposed8(cpu: Token<Self>, rows: &[f32], stride: usize, col: usize) -> [Self; 8] {
        assert!(15 * stride + col + 8 <= rows.len(), "16 x 8 block out of bounds");
        // Rows 0..8 and 8..16 as two 8 × 8 transposes, then each column's
        // two halves joined into one register.
        let hi = Avx::load_transposed(cpu.half(), &rows[8 * stride..], stride, col);
        let lo = Avx::load_transposed(cpu.half(), rows, stride, col);
        let mut out = [Self::zero(cpu); 8];
        for (c, out) in out.iter_mut().enumerate() {
            // SAFETY: the `Token<Avx512>`: the CPU runs AVX-512F.
            *out = Avx512(unsafe {
                let lo = _mm512_castps_pd(_mm512_castps256_ps512(lo[c].0));
                _mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, _mm256_castps_pd(hi[c].0)))
            });
        }
        out
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

    /// `F32x8` is plain Rust, which every CPU runs.
    const PORTABLE: Token<F32x8> = Token(PhantomData);

    #[test]
    fn splat_load_store_round_trip() {
        let mut d = [0.0f32; 8];
        F32x8::splat(PORTABLE, 3.5).store(&mut d);
        assert_eq!(d, [3.5; 8]);
        let v = F32x8::load(PORTABLE, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(v.0[7], 8.0);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = F32x8::load(PORTABLE, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = F32x8::splat(PORTABLE, 2.0);
        assert_eq!(a.add(b).0[0], 3.0);
        assert_eq!(a.sub(b).0[0], -1.0);
        assert_eq!(a.mul(b).0[3], 8.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn load_rejects_short_slices() {
        F32x8::load(PORTABLE, &[1.0; 7]);
    }

    /// `load_first` (or, when `self.0`, `store_first`) of a slice four
    /// elements longer than a vector.
    struct LongTail(bool);

    impl Kernel for LongTail {
        type Output = ();
        fn run<V: Lanes>(self, cpu: Token<V>) {
            let mut long = [1.0f32; 20];
            let long = &mut long[..V::LANES + 4];
            if self.0 {
                V::zero(cpu).store_first(long);
            } else {
                V::load_first(cpu, long);
            }
        }
    }

    /// The message of a caught panic.
    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload.downcast_ref::<&str>().map_or(String::new(), |s| s.to_string()),
        }
    }

    #[test]
    fn tails_longer_than_a_vector_are_rejected_on_every_tier() {
        for tier in Tier::available() {
            for store in [false, true] {
                let long = std::panic::catch_unwind(|| tier.run(LongTail(store)));
                let said = long.err().map(message);
                assert_eq!(said.as_deref(), Some(TAIL_TOO_LONG), "{tier}, store_first: {store}");
            }
        }
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
        v.store(&mut all);
        all[..V::LANES].to_vec()
    }

    /// Every `Lanes` op of `V` against the scalar operation it stands
    /// for, each awkward value against each, rotated through the lanes.
    /// NaN results compare as "is NaN" (payloads are not part of any
    /// kernel's contract); everything else compares `to_bits`.
    fn check_ops<V: Lanes>(cpu: Token<V>) {
        let name = std::any::type_name::<V>();
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
                let (va, vb) = (V::load(cpu, &a), V::load(cpu, &b));
                let zip =
                    |f: fn(f32, f32) -> f32| -> Vec<f32> { (0..n).map(|i| f(a[i], b[i])).collect() };
                same(lanes(va.add(vb)), zip(|x, y| x + y), "add");
                same(lanes(va.sub(vb)), zip(|x, y| x - y), "sub");
                same(lanes(va.mul(vb)), zip(|x, y| x * y), "mul");
                same(lanes(va.div(vb)), zip(|x, y| x / y), "div");
                same(lanes(V::mul_acc(vb, va, va)), zip(|x, y| y + x * x), "mul_acc");
                same(lanes(va.min(vb)), zip(|x, y| if x < y { x } else { y }), "min");
                same(lanes(va.max(vb)), zip(|x, y| if x > y { x } else { y }), "max");
                let bit =
                    |f: fn(f32, f32) -> u32| -> Vec<u32> { (0..n).map(|i| f(a[i], b[i])).collect() };
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
            let va = V::load(cpu, &a);
            let map = |f: fn(f32) -> f32| -> Vec<f32> { a.iter().map(|&x| f(x)).collect() };
            same(lanes(va.trunc()), map(f32::trunc), "trunc");
            same(lanes(va.sqrt()), map(f32::sqrt), "sqrt");
            let abs = va.and(V::splat(cpu, f32::from_bits(0x7fff_ffff)));
            let exponent = map(|x| ((x.to_bits() >> 23) % 256) as f32);
            same(lanes(abs.biased_exponent()), exponent, "biased_exponent");
            same(lanes(V::splat(cpu, a[0])), vec![a[0]; n], "splat");
            assert_eq!(to_bits(&lanes(V::zero(cpu))), vec![0; n], "{name} zero");
            // A prefix of every length in and out: the rest reads zero
            // and is left alone.
            for len in 0..=n {
                let mut want = a[..len].to_vec();
                want.resize(n, 0.0);
                same(lanes(V::load_first(cpu, &a[..len])), want, "load_first");
                let mut d = vec![-7.0f32; n + 1];
                va.store_first(&mut d[..len]);
                assert_eq!(to_bits(&d[..len]), to_bits(&a[..len]), "{name} store_first");
                assert!(d[len..].iter().all(|&x| x == -7.0), "{name} store_first past {len}");
            }
        }
    }

    /// `load_transposed` of `V` over every `LANES × LANES` block of a
    /// strided buffer, and `load_transposed8` over every `LANES × 8` one.
    fn check_transpose<V: Lanes>(cpu: Token<V>) {
        let name = std::any::type_name::<V>();
        let n = V::LANES;
        let stride = 2 * n + 3;
        let rows: Vec<f32> = (0..(n + 1) * stride).map(|i| i as f32).collect();
        for first in 0..2 {
            for col in 0..=stride - n {
                let t = V::load_transposed(cpu, &rows[first * stride..], stride, col);
                assert_eq!(t.as_ref().len(), n, "{name}: one vector per column");
                for (c, &v) in t.as_ref().iter().enumerate() {
                    let want: Vec<f32> =
                        (0..n).map(|r| ((first + r) * stride + col + c) as f32).collect();
                    assert_eq!(lanes(v), want, "{name} first={first} col={col} c={c}");
                }
            }
            for col in 0..=stride - 8 {
                let t = V::load_transposed8(cpu, &rows[first * stride..], stride, col);
                for (c, &v) in t.iter().enumerate() {
                    let want: Vec<f32> =
                        (0..n).map(|r| ((first + r) * stride + col + c) as f32).collect();
                    assert_eq!(lanes(v), want, "{name} eight first={first} col={col} c={c}");
                }
            }
        }
    }

    /// Both checks above, on one tier's lane type.
    struct Checks;

    impl Kernel for Checks {
        type Output = ();
        fn run<V: Lanes>(self, cpu: Token<V>) {
            check_ops(cpu);
            check_transpose(cpu);
        }
    }

    #[test]
    fn lanes_ops_are_the_scalar_operations_on_both_instruction_sets() {
        for tier in Tier::available() {
            tier.run(Checks);
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
        F32x8::load_transposed(PORTABLE, &rows, 10, 0);
    }

    /// `load_transposed` of the block at column 0 of `rows`, `stride`
    /// apart.
    struct Transpose<'a>(&'a [f32], usize);

    impl Kernel for Transpose<'_> {
        type Output = ();
        fn run<V: Lanes>(self, cpu: Token<V>) {
            V::load_transposed(cpu, self.0, self.1, 0);
        }
    }

    #[test]
    fn wide_load_transposed_rejects_a_block_past_the_buffer() {
        // Fifteen full rows and fifteen values of the sixteenth.
        if Tier::Avx512.is_available() {
            let rows = [0.0f32; 15 * 20 + 15];
            let past = std::panic::catch_unwind(|| Tier::Avx512.run(Transpose(&rows, 20)));
            assert_eq!(past.err().map(message).as_deref(), Some("16 x 16 block out of bounds"));
        }
    }
}
