//! Usage sort + allocation weighting — the HW.(2)/(3) kernels of Fig. 2 —
//! with the optional *usage skimming* approximation (§5.2).
//!
//! The free list `φ` sorts slots by ascending usage; the allocation
//! weighting then prefers the least-used slots:
//! `w_a[φ_j] = (1 − u[φ_j]) · Π_{k<j} u[φ_k]`.
//!
//! **Usage skimming** drops the slots whose usage is highest — their
//! accumulated product term is already ≈ 0, so they are the least
//! significant entries of the allocation computation. Skimming a fraction
//! `K` shortens both the sort and the accumulated product to `(1−K)·N`
//! elements, which is where the paper's proportional complexity reduction
//! comes from. Skimmed slots receive zero allocation weight.
//!
//! # Two forms, one set of bits
//!
//! [`allocation_from_free_list_into`] is the definition: the product over
//! a fully sorted free list (the permutation
//! [`SortEngine::argsort_into`](hima_sort::SortEngine::argsort_into)
//! yields, which every `hima-sort` hardware model is pinned to). The
//! memory unit runs [`FreeList`] instead: the paper's two-stage usage sort
//! (§4.3), executed. [`FreeList::sort`] packs every slot's key
//! (`ordered_bits(u) << 32 | slot`, the order `argsort_into` sorts by:
//! ascending `total_cmp`, ties by slot) and sorts each chunk of at most
//! 128 keys ([`hima_tensor::keysort::sort_chunks`]: a bitonic network in
//! vector registers on AVX-512, a comparison sort of the same keys on the
//! eight-lane tiers) — at the served geometry, and on each 64-slot tile of
//! the paper's, that chunk is the whole free list.
//! [`FreeList::allocation_into`] runs the product over the keys in order,
//! reading each usage back from its key; with more than one chunk the
//! order comes from merging the sorted chunks
//! ([`hima_tensor::keysort::ChunkMerge`]), one key at a time, only as far
//! as the product reads. Keys are distinct, so the chunk sort and the
//! merge yield the argsort's order exactly, on every vector tier.
//!
//! **The stop rule.** The product may stop after slot `j` once the
//! running product is exactly `+0.0` *and* every usage `u` satisfies
//! `u.to_bits() <= 1.0f32.to_bits()` — `u` is `+0.0`, `1.0` or a
//! positive number between (no NaN, no `-0.0`, no negative, nothing
//! above one). Then every later slot's reference weight is
//! `(1 − u) · (+0.0 · Π u)`: a product of `+0.0` with values in
//! `[+0.0, 1]` is `+0.0`, and `1 − u` is in `[+0.0, 1]`, so the weight is
//! `+0.0` — the value `w_a.fill(0.0)` already wrote. A usage outside that
//! range (a NaN gives `0 · NaN = NaN`, a `-0.0` or a negative turns the
//! product to `-0.0`, a value above one turns `1 − u` negative) keeps the
//! product running to the last kept slot, so a hostile usage vector costs
//! the whole merge and yields the reference's bits too. The rule only
//! decides how far the product runs; the products themselves are the
//! reference's `f32` products, computed on exact values once the running
//! product nears the subnormal range (`product`), where the `f32`
//! multiply is slow but not different.

use hima_tensor::keysort::{sort_chunks_on, ChunkMerge, CHUNK};
use hima_tensor::simd::Tier;

/// Usage-skimming configuration: the fraction of slots (those with the
/// highest usage) excluded from sorting and allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkimRate(f32);

impl SkimRate {
    /// No skimming — the exact DNC allocation.
    pub const NONE: SkimRate = SkimRate(0.0);

    /// Creates a skim rate `K ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `[0, 1)`.
    pub fn new(k: f32) -> Self {
        assert!((0.0..1.0).contains(&k), "skim rate must be in [0,1), got {k}");
        SkimRate(k)
    }

    /// Non-panicking form of [`SkimRate::new`] for validating untrusted
    /// rates (e.g. a client-supplied spec at a server boundary): `None`
    /// iff `k` lies outside `[0, 1)`.
    pub fn checked(k: f32) -> Option<Self> {
        (0.0..1.0).contains(&k).then_some(SkimRate(k))
    }

    /// The configured fraction `K`.
    pub fn fraction(self) -> f32 {
        self.0
    }

    /// How many of `n` slots survive skimming (always ≥ 1 for `n ≥ 1`).
    pub fn kept(self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (((1.0 - self.0) * n as f32).ceil() as usize).clamp(1, n)
    }
}

impl Default for SkimRate {
    fn default() -> Self {
        Self::NONE
    }
}

/// Allocation weighting from an already-sorted free list (ascending usage,
/// as [`SortEngine::argsort_into`](hima_sort::SortEngine::argsort_into)
/// yields it), written into `w_a` — the definition [`FreeList`] is held
/// to. The product `Π_{k<j} u[φ_k]` streams left to right over the
/// kept free list, one multiply per slot; skimmed slots get zero weight.
///
/// # Panics
///
/// Panics if `w_a.len() != usage.len()`; debug builds also check that
/// `free_list` is a permutation of the usage indices.
pub fn allocation_from_free_list_into(
    usage: &[f32],
    free_list: &[usize],
    skim: SkimRate,
    w_a: &mut [f32],
) {
    let n = usage.len();
    assert_eq!(w_a.len(), n, "allocation output length mismatch");
    if n == 0 {
        return;
    }
    debug_assert_eq!(free_list.len(), n, "argsort must be a permutation");

    let kept = skim.kept(n);
    w_a.fill(0.0);
    let mut acc = 1.0f32; // Π_{k<j} u[φ_k], accumulated in free-list order
    for &slot in &free_list[..kept] {
        let u = usage[slot];
        w_a[slot] = (1.0 - u) * acc;
        acc *= u;
    }
}

/// The free list `φ` as the memory unit builds it: every slot's packed
/// sort key, sorted in chunks, merged only as far as the allocation
/// product reads (see the [module docs](self)). A key carries its slot's
/// usage bit for bit, so the free list holds everything the product
/// reads: [`FreeList::sort`] takes the usage vector,
/// [`FreeList::allocation_into`] only the output. The key buffer and the
/// merge's heap are sized once and reused, so stepping allocates nothing.
#[derive(Debug, Clone)]
pub struct FreeList {
    /// `ordered_bits(u) << 32 | slot`, packed at position `slot`; each
    /// chunk of [`CHUNK`] keys sorted ascending.
    keys: Vec<u64>,
    merge: ChunkMerge,
    /// Slots the product runs over: `SkimRate::kept` of the slot count.
    kept: usize,
    /// Whether every usage is in `[+0.0, 1.0]` bitwise — the stop rule's
    /// condition on the usage vector.
    in_unit: bool,
}

impl FreeList {
    /// An empty free list with room for `slots` keys.
    pub fn with_capacity(slots: usize) -> Self {
        Self { keys: Vec::with_capacity(slots), merge: ChunkMerge::default(), kept: 0, in_unit: true }
    }

    /// HW.(2b), the usage sort: packs the key of every slot of `usage` and
    /// sorts them chunk by chunk, on the detected vector tier.
    ///
    /// # Panics
    ///
    /// Panics if `usage` holds more than `u32::MAX` slots.
    pub fn sort(&mut self, usage: &[f32], skim: SkimRate) {
        self.sort_on(Tier::detected(), usage, skim);
    }

    /// [`FreeList::sort`] on the given tier: the same keys in the same
    /// order on every tier.
    ///
    /// # Panics
    ///
    /// As `sort`, and if this CPU does not run `tier`.
    pub fn sort_on(&mut self, tier: Tier, usage: &[f32], skim: SkimRate) {
        self.keys.resize(usage.len(), 0);
        sort_chunks_on(tier, usage, &mut self.keys);
        let top = usage.iter().fold(0, |top, u| top.max(u.to_bits()));
        self.in_unit = top <= 1.0f32.to_bits();
        self.kept = skim.kept(usage.len());
    }

    /// HW.(3), the allocation weighting of the usage vector
    /// [`FreeList::sort`] last packed, written into `w_a`: the bits of
    /// [`allocation_from_free_list_into`] over the full argsort, the
    /// product stopped by the rule in the [module docs](self). Merging more
    /// than one sorted chunk runs here, so a kernel profile charges it to
    /// `Allocation`, not to `UsageSort`.
    ///
    /// # Panics
    ///
    /// Panics if `w_a` does not hold one weight per packed slot.
    pub fn allocation_into(&mut self, w_a: &mut [f32]) {
        assert_eq!(w_a.len(), self.keys.len(), "allocation output length mismatch");
        w_a.fill(0.0);
        let (kept, in_unit) = (self.kept, self.in_unit);
        if self.keys.len() <= CHUNK {
            product(self.keys.iter().copied(), kept, in_unit, w_a);
        } else {
            product(self.merge.merge(&self.keys), kept, in_unit, w_a);
        }
    }
}

/// `w_a[φ_j] = (1 − u[φ_j]) · Π_{k<j} u[φ_k]` over the first `kept` keys
/// of `free_list`, in order, until the stop rule holds.
///
/// With every usage in `[+0.0, 1.0]`, the running product shrinks toward
/// zero and, before the stop rule holds, spends steps in `f32`'s
/// subnormal range, where every multiply is a microcode assist on x86
/// (tens of times an ordinary one). So once it falls below 2⁻¹¹⁶ the same
/// two products run on exact values instead: an `f32` times an `f32` is
/// exact in `f64`, which [`round_to_f32`] rounds to the nearest `f32` —
/// ties to even, subnormal results included — as the `f32` multiply
/// rounds its exact product. The bits are the `f32` loop's; only no
/// subnormal reaches the FPU.
fn product(free_list: impl Iterator<Item = u64>, kept: usize, in_unit: bool, w_a: &mut [f32]) {
    let mut acc = 1.0f32; // Π_{k<j} u[φ_k], accumulated in free-list order
    let mut keys = free_list.take(kept);
    for key in keys.by_ref() {
        let u = usage_of(key);
        w_a[key as u32 as usize] = (1.0 - u) * acc;
        acc *= u;
        if in_unit && acc.to_bits() < TINY {
            break;
        }
    }
    if !in_unit {
        return;
    }
    let mut acc = exact(acc);
    for key in keys {
        if acc == 0.0 {
            return;
        }
        let u = usage_of(key);
        // `1 − u` rounds to one for a subnormal `u` (the `f32` spacing
        // below one is 2⁻²⁴), so no subnormal enters the subtraction.
        let keep = if u.to_bits() < MIN_NORMAL { 1.0 } else { 1.0 - u };
        w_a[key as u32 as usize] = round_to_f32(f64::from(keep) * acc);
        acc = exact(round_to_f32(exact(u) * acc));
    }
}

/// The bits of 2⁻¹¹⁶: below it the running product leaves `f32`
/// arithmetic for exact `f64` values.
const TINY: u32 = 11 << 23;
/// The bits of 2⁻¹²⁶, the least normal `f32`.
const MIN_NORMAL: u32 = 1 << 23;

/// A non-negative `f32` as the `f64` of the same value, computed from its
/// bits when it is subnormal (converting a subnormal is an assist too).
fn exact(x: f32) -> f64 {
    let bits = x.to_bits();
    if bits < MIN_NORMAL {
        f64::from(bits) * f64::from_bits((1023 - 149) << 52)
    } else {
        f64::from(x)
    }
}

/// The non-negative `f64` `p`, which must be an exact product of two
/// `f32`s no greater than one, rounded to the nearest `f32`, ties to even:
/// the result an `f32` multiply gives for that product. Below 2⁻¹²⁶ the
/// result is a multiple of 2⁻¹⁴⁹, found by rounding `p · 2¹⁴⁹` to an
/// integer — adding and subtracting 2⁵² rounds it to even, exactly, as
/// it is below 2²⁴ — whose value is the subnormal's bits.
fn round_to_f32(p: f64) -> f32 {
    if p >= f64::from(f32::MIN_POSITIVE) {
        return p as f32;
    }
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let steps = (p * f64::from_bits((1023 + 149) << 52) + TWO_52) - TWO_52;
    f32::from_bits(steps as u32)
}

/// The usage a free-list key packs, bit for bit: `ordered_bits` undone. A
/// set top bit was a clear sign bit, which `ordered_bits` set; a clear one
/// was a set sign bit, for which it flipped every bit.
fn usage_of(key: u64) -> f32 {
    let ordered = (key >> 32) as u32;
    f32::from_bits(ordered ^ (!(ordered as i32 >> 31) as u32 | 0x8000_0000))
}

/// Merges allocation and content write weightings through the write gates
/// into `out` — the WM kernel: `w_w = g_w (g_a w_a + (1 − g_a) w_u)`.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn merge_write_weighting_into(
    allocation: &[f32],
    content: &[f32],
    write_gate: f32,
    allocation_gate: f32,
    out: &mut [f32],
) {
    assert_eq!(allocation.len(), content.len(), "weighting length mismatch");
    assert_eq!(out.len(), allocation.len(), "write merge output length mismatch");
    for ((o, &a), &c) in out.iter_mut().zip(allocation).zip(content) {
        *o = write_gate * (allocation_gate * a + (1.0 - allocation_gate) * c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hima_sort::{ordered_bits, CentralizedMergeSorter, SortEngine};

    fn alloc(usage: &[f32], skim: SkimRate) -> Vec<f32> {
        let mut w_a = vec![f32::NAN; usage.len()];
        allocation_from_free_list_into(usage, &CentralizedMergeSorter.argsort(usage), skim, &mut w_a);
        w_a
    }

    #[test]
    fn empty_memory_allocates_first_free_slot_fully() {
        let w = alloc(&[0.0, 0.0, 0.0], SkimRate::NONE);
        // All free: first slot in the free list takes weight 1, the prefix
        // product of zeros keeps the rest at 0... after slot 0, prefix = 0.
        assert_eq!(w[0], 1.0);
        assert_eq!(w[1], 0.0);
        assert_eq!(w[2], 0.0);
    }

    #[test]
    fn least_used_slot_wins() {
        let w = alloc(&[0.9, 0.1, 0.5], SkimRate::NONE);
        assert!(w[1] > w[2] && w[2] > w[0], "{w:?}");
    }

    #[test]
    fn full_memory_allocates_nothing() {
        let w = alloc(&[1.0, 1.0, 1.0], SkimRate::NONE);
        assert!(w.iter().all(|&x| x.abs() < 1e-6));
    }

    #[test]
    fn allocation_matches_closed_form() {
        // u sorted ascending: [0.2, 0.5, 0.9] at slots [2, 0, 1].
        let w = alloc(&[0.5, 0.9, 0.2], SkimRate::NONE);
        let expect_2 = (1.0 - 0.2) * 1.0;
        let expect_0 = (1.0 - 0.5) * 0.2;
        let expect_1 = (1.0 - 0.9) * 0.2 * 0.5;
        assert!((w[2] - expect_2).abs() < 1e-6);
        assert!((w[0] - expect_0).abs() < 1e-6);
        assert!((w[1] - expect_1).abs() < 1e-6);
    }

    #[test]
    fn allocation_is_subnormalized() {
        let usage = [0.3, 0.6, 0.1, 0.8, 0.45];
        let w = alloc(&usage, SkimRate::NONE);
        assert!(w.iter().sum::<f32>() <= 1.0 + 1e-5);
        assert!(w.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn skimming_zeroes_highest_usage_slots() {
        let usage = [0.1, 0.95, 0.2, 0.9];
        let w = alloc(&usage, SkimRate::new(0.5));
        // K=50% of 4 slots -> keep 2 least-used (slots 0 and 2).
        assert!(w[0] > 0.0 && w[2] > 0.0);
        assert_eq!(w[1], 0.0);
        assert_eq!(w[3], 0.0);
    }

    #[test]
    fn small_skim_barely_changes_allocation() {
        let usage: Vec<f32> = (0..64).map(|i| (i as f32) / 64.0).collect();
        let exact = alloc(&usage, SkimRate::NONE);
        let skimmed = alloc(&usage, SkimRate::new(0.2));
        for (e, s) in exact.iter().zip(&skimmed) {
            assert!((e - s).abs() < 1e-4, "{e} vs {s}");
        }
    }

    #[test]
    fn skim_kept_counts() {
        assert_eq!(SkimRate::new(0.2).kept(10), 8);
        assert_eq!(SkimRate::new(0.5).kept(10), 5);
        assert_eq!(SkimRate::new(0.99).kept(10), 1, "always keep at least one slot");
        assert_eq!(SkimRate::NONE.kept(10), 10);
        assert_eq!(SkimRate::new(0.5).kept(0), 0);
    }

    #[test]
    #[should_panic(expected = "skim rate must be in [0,1)")]
    fn skim_rejects_out_of_range() {
        SkimRate::new(1.0);
    }

    #[test]
    fn write_merge_gates() {
        let (a, c) = ([1.0, 0.0], [0.0, 1.0]);
        let merge = |write_gate, allocation_gate| {
            let mut out = [f32::NAN; 2];
            merge_write_weighting_into(&a, &c, write_gate, allocation_gate, &mut out);
            out
        };
        // Fully allocation-driven.
        assert_eq!(merge(1.0, 1.0), [1.0, 0.0]);
        // Fully content-driven.
        assert_eq!(merge(1.0, 0.0), [0.0, 1.0]);
        // Write gate closed: no writes at all.
        assert_eq!(merge(0.0, 0.5), [0.0, 0.0]);
        // Blended.
        assert_eq!(merge(0.5, 0.5), [0.25, 0.25]);
    }

    #[test]
    fn allocation_empty_input() {
        assert!(alloc(&[], SkimRate::NONE).is_empty());
        let mut free_list = FreeList::with_capacity(0);
        free_list.sort(&[], SkimRate::NONE);
        free_list.allocation_into(&mut []);
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The free list's weights over stale output on every tier this CPU
    /// runs, checked `to_bits` against the definition over the full
    /// argsort, and its merged order against the argsort's. Returns how
    /// many keys the definition's product reads before the stop rule
    /// holds (the kept count if it never does).
    fn assert_prefix_is_the_definition(what: &str, usage: &[f32], skim: SkimRate) -> usize {
        let mut want = vec![f32::NAN; usage.len()];
        let mut order = Vec::new();
        CentralizedMergeSorter.argsort_into(usage, &mut order);
        allocation_from_free_list_into(usage, &order, skim, &mut want);
        let mut free_list = FreeList::with_capacity(usage.len());
        for tier in Tier::available() {
            let mut got = vec![f32::NAN; usage.len()];
            free_list.sort_on(tier, usage, skim);
            free_list.allocation_into(&mut got);
            assert_eq!(bits(&got), bits(&want), "{what}, K = {}, {tier}", skim.fraction());
            let FreeList { keys, merge, .. } = &mut free_list;
            let merged: Vec<usize> = merge.merge(keys).map(|k| k as u32 as usize).collect();
            assert_eq!(merged, order, "{what}, {tier}: the merged chunks are the argsort's order");
        }
        let in_unit = usage.iter().all(|u| u.to_bits() <= 1.0f32.to_bits());
        let mut acc = 1.0f32;
        let kept = skim.kept(usage.len());
        (1..=kept)
            .find(|&j| {
                acc *= usage[order[j - 1]];
                in_unit && acc.to_bits() == 0
            })
            .unwrap_or(kept)
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn a_key_carries_its_usage_bit_for_bit() {
        let mut next = xorshift(3);
        let edges = [0x0000_0000, 0x8000_0000, 0x0000_0001, 0x8000_0001, 0x3f80_0000];
        let more = [0x7f80_0000, 0xff80_0000, 0x7fc0_0001, 0xffc0_0002, 0x7fff_ffff, 0xffff_ffff];
        let random = (0..4096).map(|_| (next() >> 32) as u32);
        for bits in edges.into_iter().chain(more).chain(random) {
            let key = u64::from(ordered_bits(f32::from_bits(bits))) << 32 | 77;
            assert_eq!(usage_of(key).to_bits(), bits, "{bits:#010x}");
        }
    }

    #[test]
    fn tiny_products_round_as_the_f32_multiply_rounds_them() {
        // Running products near and in the subnormal range times usages
        // in [0, 1]: random bits, ties to even, the step into 2⁻¹²⁶.
        let mut next = xorshift(11);
        let mut pairs: Vec<(f32, f32)> = (0..200_000)
            .map(|_| {
                let r = next();
                let acc = f32::from_bits((r as u32) % TINY);
                let u = f32::from_bits((r >> 32) as u32 % (1.0f32.to_bits() + 1));
                (acc, u)
            })
            .collect();
        let halves = [0.5, 0.75, 1.0 - f32::EPSILON / 2.0, 1.0, 0.0, f32::from_bits(1)];
        for bits in [1u32, 2, 3, 5, 0x7f_ffff, 0x80_0000, 0x80_0001, 0xff_ffff] {
            pairs.extend(halves.iter().map(|&u| (f32::from_bits(bits), u)));
        }
        for (acc, u) in pairs {
            let want = acc * u;
            let got = round_to_f32(exact(acc) * exact(u));
            assert_eq!(got.to_bits(), want.to_bits(), "{acc:e} × {u:e}");
        }
    }

    #[test]
    fn prefix_allocation_is_the_definition_on_hostile_usage() {
        let hostile = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            1.0,
            1.0 + f32::EPSILON,
            -1.0e-30,
            f32::from_bits(1),
        ];
        let skims = [SkimRate::NONE, SkimRate::new(0.2), SkimRate::new(0.5)];
        // How far the product ran: stopped inside the first chunk, stopped
        // inside a later one (merged that far), every kept slot.
        let (mut first, mut merged, mut all) = (false, false, false);
        for n in [1usize, 31, 32, 33, 64, 128, 129, 1024] {
            let mut next = xorshift(n as u64);
            let mut uniform = || (next() >> 40) as f32 / (1u64 << 24) as f32;
            let soft: Vec<f32> = (0..n).map(|_| uniform()).collect();
            // Usage as a DNC leaves it: most slots near zero at the low end.
            let skewed: Vec<f32> = soft.iter().map(|u| u * u * u * u).collect();
            // Usage as a long-lived session leaves it: every slot near ½,
            // so the product underflows to zero only after ≈ 170 slots.
            let settled: Vec<f32> = soft.iter().map(|u| 0.48 + 0.07 * u).collect();
            let mut cases = vec![
                ("all zero".to_string(), vec![0.0; n]),
                ("all equal".to_string(), vec![0.375; n]),
                ("all one".to_string(), vec![1.0; n]),
                ("uniform".to_string(), soft.clone()),
                ("skewed".to_string(), skewed.clone()),
                ("settled".to_string(), settled),
            ];
            for (h, &x) in hostile.iter().enumerate() {
                // One hostile value among soft ones, at the low end, in
                // the middle and at the end.
                for at in [0, n / 2, n - 1] {
                    let mut usage = skewed.clone();
                    usage[at] = x;
                    cases.push((format!("hostile #{h} at {at}"), usage));
                }
            }
            for (what, usage) in &cases {
                for skim in skims {
                    let kept = skim.kept(n);
                    let what = format!("{what}, N = {n}");
                    let read = assert_prefix_is_the_definition(&what, usage, skim);
                    first |= read <= CHUNK && read < kept && n > CHUNK;
                    merged |= read > CHUNK && read < kept;
                    all |= read == kept;
                }
            }
        }
        assert!(first, "no multi-chunk case stopped inside the first chunk");
        assert!(merged, "no case stopped after merging past the first chunk");
        assert!(all, "no case ran to the last kept slot");
    }

    #[test]
    fn prefix_allocation_is_the_definition_along_a_recorded_trajectory() {
        // The usage vectors a served-geometry unit carries step by step.
        let config = crate::MemoryConfig::new(128, 16, 2);
        for skim in [SkimRate::NONE, SkimRate::new(0.2)] {
            let mut unit = crate::MemoryUnit::new(config.with_skim(skim));
            let len = crate::DncParams::new(128, 16, 2).interface_size();
            for t in 0..200 {
                let raw: Vec<f32> =
                    (0..len).map(|i| ((t * 37 + i * 13) as f32 * 0.21).sin() * 3.0).collect();
                unit.step(&crate::InterfaceVector::parse(&raw, 16, 2));
                assert_prefix_is_the_definition(&format!("step {t}"), unit.usage(), skim);
            }
        }
    }

    #[test]
    fn prefix_allocation_is_the_definition_along_a_long_lived_session() {
        // A served-geometry lane 2 000 steps into one session: its usage
        // has settled near ½ on every slot, so the product never reaches
        // zero and reads the whole free list — the regime a blank-state
        // trajectory never enters.
        let params = crate::DncParams::new(128, 16, 2).with_hidden(64).with_io(16, 16);
        let mut engine = crate::EngineBuilder::new(params).seed(7).build();
        let mut read_all = 0;
        for t in 0..2100 {
            let x: Vec<f32> = (0..16).map(|i| ((t * 16 + i) as f32 * 0.61).sin()).collect();
            engine.step(&x);
            if t >= 2000 {
                let usage = engine.unit(0, 0).usage();
                let what = format!("step {t}");
                let read = assert_prefix_is_the_definition(&what, usage, SkimRate::NONE);
                read_all += usize::from(read == usage.len());
            }
        }
        assert!(read_all >= 50, "only {read_all} of 100 steps read the whole free list");
    }
}
