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
//! memory unit runs [`FreeList`] instead, which sorts only as much of the
//! free list as the product needs — the observation usage skimming rests
//! on, taken exactly. [`FreeList::sort_prefix`] packs every slot's key
//! (`ordered_bits(u) << 32 | slot`, the order `argsort_into` sorts by:
//! ascending `total_cmp`, ties by slot) and sorts the 32 smallest
//! with a selection; [`FreeList::allocation_into`] runs the product over
//! them, reading each usage back from its key, and while it has not stopped, doubles the window — selects and
//! sorts the next keys of the unsorted rest — and carries on, until the
//! window reaches the kept slots.
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
//! the full sort and yields the reference's bits too. There is one body:
//! the rule only decides how far the same loop runs.

use hima_sort::ordered_bits;

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

/// Slots [`FreeList::sort_prefix`] sorts: the first window of the free
/// list. Real usage vectors are mostly near zero at their low end, so the
/// product of the 32 smallest is usually `+0.0` already.
const WINDOW: usize = 32;

/// The free list `φ` as the memory unit builds it: every slot's packed
/// sort key, of which only a sorted prefix — as long as the allocation
/// product needs — is ever put in order (see the [module docs](self)).
/// A key carries its slot's usage bit for bit, so the free list holds
/// everything the product reads: [`FreeList::sort_prefix`] takes the usage
/// vector, [`FreeList::allocation_into`] only the output. The key buffer
/// is sized once and reused, so stepping allocates nothing.
#[derive(Debug, Clone)]
pub struct FreeList {
    /// `ordered_bits(u) << 32 | slot` per slot; `keys[..sorted]` ascending
    /// and no larger than any key after them.
    keys: Vec<u64>,
    sorted: usize,
    /// Slots the product runs over: `SkimRate::kept` of the slot count.
    kept: usize,
    /// Whether every usage is in `[+0.0, 1.0]` bitwise — the stop rule's
    /// condition on the usage vector.
    in_unit: bool,
}

impl FreeList {
    /// An empty free list with room for `slots` keys.
    pub fn with_capacity(slots: usize) -> Self {
        Self { keys: Vec::with_capacity(slots), sorted: 0, kept: 0, in_unit: true }
    }

    /// HW.(2b), the usage sort: packs the key of every slot of `usage`
    /// and sorts the 32 smallest of the slots `skim` keeps.
    ///
    /// # Panics
    ///
    /// Panics if `usage` holds more than `u32::MAX` slots.
    pub fn sort_prefix(&mut self, usage: &[f32], skim: SkimRate) {
        assert!(u32::try_from(usage.len()).is_ok(), "slot index must fit 32 bits");
        self.keys.clear();
        let key = |(&u, slot): (&f32, u64)| u64::from(ordered_bits(u)) << 32 | slot;
        self.keys.extend(usage.iter().zip(0u64..).map(key));
        self.in_unit = usage.iter().all(|u| u.to_bits() <= 1.0f32.to_bits());
        self.kept = skim.kept(usage.len());
        self.sorted = 0;
        self.sort_to(WINDOW.min(self.kept));
    }

    /// Puts the keys up to `end` in order: the smallest of the unsorted
    /// rest selected, then sorted.
    fn sort_to(&mut self, end: usize) {
        let rest = &mut self.keys[self.sorted..];
        let len = end - self.sorted;
        if len == 0 {
            return;
        }
        if len < rest.len() {
            rest.select_nth_unstable(len - 1);
        }
        rest[..len].sort_unstable();
        self.sorted = end;
    }

    /// HW.(3), the allocation weighting of the usage vector
    /// [`FreeList::sort_prefix`] last packed, written into `w_a`: the bits
    /// of [`allocation_from_free_list_into`] over the full argsort, the
    /// sorted prefix widened as long as the product needs it (the stop
    /// rule is in the [module docs](self)). The widening — selecting and
    /// sorting further keys — runs here, so a kernel profile charges it to
    /// `Allocation`, not to `UsageSort`.
    ///
    /// # Panics
    ///
    /// Panics if `w_a` does not hold one weight per packed slot.
    pub fn allocation_into(&mut self, w_a: &mut [f32]) {
        assert_eq!(w_a.len(), self.keys.len(), "allocation output length mismatch");
        w_a.fill(0.0);
        let mut acc = 1.0f32; // Π_{k<j} u[φ_k], accumulated in free-list order
        let mut done = 0;
        loop {
            for &key in &self.keys[done..self.sorted] {
                let u = usage_of(key);
                w_a[key as u32 as usize] = (1.0 - u) * acc;
                acc *= u;
            }
            if self.sorted == self.kept || (self.in_unit && acc.to_bits() == 0) {
                return;
            }
            done = self.sorted;
            self.sort_to((2 * done).min(self.kept));
        }
    }
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
    use hima_sort::{CentralizedMergeSorter, SortEngine};

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
        free_list.sort_prefix(&[], SkimRate::NONE);
        free_list.allocation_into(&mut []);
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The free list's weights over stale output, checked `to_bits`
    /// against the definition over the full argsort. Returns how many keys
    /// the free list sorted.
    fn assert_prefix_is_the_definition(what: &str, usage: &[f32], skim: SkimRate) -> usize {
        let mut want = vec![f32::NAN; usage.len()];
        let mut order = Vec::new();
        CentralizedMergeSorter.argsort_into(usage, &mut order);
        allocation_from_free_list_into(usage, &order, skim, &mut want);
        let mut free_list = FreeList::with_capacity(usage.len());
        let mut got = vec![f32::NAN; usage.len()];
        free_list.sort_prefix(usage, skim);
        free_list.allocation_into(&mut got);
        assert_eq!(bits(&got), bits(&want), "{what}, K = {}", skim.fraction());
        let sorted: Vec<usize> =
            free_list.keys[..free_list.sorted].iter().map(|&k| k as u32 as usize).collect();
        assert_eq!(sorted, order[..free_list.sorted], "{what}: the sorted prefix is the argsort's");
        free_list.sorted
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
        // How far the product ran: the first window, a doubled one, every
        // kept slot.
        let (mut first, mut widened, mut all) = (false, false, false);
        for n in [1usize, 31, 32, 33, 64, 128, 1024] {
            let mut next = xorshift(n as u64);
            let mut uniform = || (next() >> 40) as f32 / (1u64 << 24) as f32;
            let soft: Vec<f32> = (0..n).map(|_| uniform()).collect();
            // Usage as a DNC leaves it: most slots near zero at the low end.
            let skewed: Vec<f32> = soft.iter().map(|u| u * u * u * u).collect();
            let mut cases = vec![
                ("all zero".to_string(), vec![0.0; n]),
                ("all equal".to_string(), vec![0.375; n]),
                ("all one".to_string(), vec![1.0; n]),
                ("uniform".to_string(), soft.clone()),
                ("skewed".to_string(), skewed.clone()),
            ];
            for (h, &x) in hostile.iter().enumerate() {
                // One hostile value among soft ones, at the low end, in
                // the middle and past the first window.
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
                    let sorted = assert_prefix_is_the_definition(&what, usage, skim);
                    first |= sorted == WINDOW && kept > WINDOW;
                    widened |= sorted > WINDOW && sorted < kept;
                    all |= sorted == kept;
                }
            }
        }
        assert!(first, "no case stopped after the first window");
        assert!(widened, "no case stopped after a widened window");
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
}
