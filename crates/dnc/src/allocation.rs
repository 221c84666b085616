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

use hima_sort::SortEngine;
use serde::{Deserialize, Serialize};

/// Usage-skimming configuration: the fraction of slots (those with the
/// highest usage) excluded from sorting and allocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// Allocation weighting from the usage vector.
///
/// `sorter` supplies the (hardware-modeled) argsort of the usage vector;
/// `skim` optionally truncates the free list. Returns a vector in `[0,1]^N`
/// summing to at most 1.
///
/// # Panics
///
/// Panics if the sorter returns a malformed permutation (debug builds).
pub fn allocation_weighting(usage: &[f32], sorter: &dyn SortEngine, skim: SkimRate) -> Vec<f32> {
    if usage.is_empty() {
        return Vec::new();
    }
    let free_list = sorter.argsort(usage);
    allocation_from_free_list(usage, &free_list, skim)
}

/// Allocation weighting from an already-sorted free list (ascending
/// usage). Split out so the usage sort and the accumulated product can be
/// timed as the separate kernels they are in Table 1.
///
/// # Panics
///
/// Panics if `free_list` is not a permutation of the usage indices (debug
/// builds).
pub(crate) fn allocation_from_free_list(usage: &[f32], free_list: &[usize], skim: SkimRate) -> Vec<f32> {
    let mut w_a = vec![0.0; usage.len()];
    allocation_from_free_list_into(usage, free_list, skim, &mut w_a);
    w_a
}

/// Output-buffer form of `allocation_from_free_list`: writes the
/// allocation weighting into `w_a` without allocating. The accumulated
/// product streams left-to-right over the kept free list — the same
/// multiplication order as
/// [`exclusive_prefix_product`](hima_tensor::vector::exclusive_prefix_product),
/// so the result is bit-identical to the allocating form.
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

/// Merges allocation and content write weightings through the write gates —
/// the WM kernel: `w_w = g_w (g_a w_a + (1 − g_a) w_u)`.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn merge_write_weighting(
    allocation: &[f32],
    content: &[f32],
    write_gate: f32,
    allocation_gate: f32,
) -> Vec<f32> {
    let mut out = vec![0.0; allocation.len()];
    merge_write_weighting_into(allocation, content, write_gate, allocation_gate, &mut out);
    out
}

/// Output-buffer form of [`merge_write_weighting`]: writes the merged
/// weighting into `out` without allocating.
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
    use hima_sort::CentralizedMergeSorter;

    fn alloc(usage: &[f32]) -> Vec<f32> {
        allocation_weighting(usage, &CentralizedMergeSorter, SkimRate::NONE)
    }

    #[test]
    fn empty_memory_allocates_first_free_slot_fully() {
        let w = alloc(&[0.0, 0.0, 0.0]);
        // All free: first slot in the free list takes weight 1, the prefix
        // product of zeros keeps the rest at 0... after slot 0, prefix = 0.
        assert_eq!(w[0], 1.0);
        assert_eq!(w[1], 0.0);
        assert_eq!(w[2], 0.0);
    }

    #[test]
    fn least_used_slot_wins() {
        let w = alloc(&[0.9, 0.1, 0.5]);
        assert!(w[1] > w[2] && w[2] > w[0], "{w:?}");
    }

    #[test]
    fn full_memory_allocates_nothing() {
        let w = alloc(&[1.0, 1.0, 1.0]);
        assert!(w.iter().all(|&x| x.abs() < 1e-6));
    }

    #[test]
    fn allocation_matches_closed_form() {
        // u sorted ascending: [0.2, 0.5, 0.9] at slots [2, 0, 1].
        let w = alloc(&[0.5, 0.9, 0.2]);
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
        let w = alloc(&usage);
        assert!(w.iter().sum::<f32>() <= 1.0 + 1e-5);
        assert!(w.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn skimming_zeroes_highest_usage_slots() {
        let usage = [0.1, 0.95, 0.2, 0.9];
        let w = allocation_weighting(&usage, &CentralizedMergeSorter, SkimRate::new(0.5));
        // K=50% of 4 slots -> keep 2 least-used (slots 0 and 2).
        assert!(w[0] > 0.0 && w[2] > 0.0);
        assert_eq!(w[1], 0.0);
        assert_eq!(w[3], 0.0);
    }

    #[test]
    fn small_skim_barely_changes_allocation() {
        let usage: Vec<f32> = (0..64).map(|i| (i as f32) / 64.0).collect();
        let exact = alloc(&usage);
        let skimmed = allocation_weighting(&usage, &CentralizedMergeSorter, SkimRate::new(0.2));
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
        let a = [1.0, 0.0];
        let c = [0.0, 1.0];
        // Fully allocation-driven.
        assert_eq!(merge_write_weighting(&a, &c, 1.0, 1.0), vec![1.0, 0.0]);
        // Fully content-driven.
        assert_eq!(merge_write_weighting(&a, &c, 1.0, 0.0), vec![0.0, 1.0]);
        // Write gate closed: no writes at all.
        assert_eq!(merge_write_weighting(&a, &c, 0.0, 0.5), vec![0.0, 0.0]);
        // Blended.
        let w = merge_write_weighting(&a, &c, 0.5, 0.5);
        assert_eq!(w, vec![0.25, 0.25]);
    }

    #[test]
    fn allocation_empty_input() {
        assert!(alloc(&[]).is_empty());
    }

    #[test]
    fn into_forms_match_allocating_forms() {
        let usage = [0.3, 0.6, 0.1, 0.8, 0.45];
        let free_list = CentralizedMergeSorter.argsort(&usage);
        for skim in [SkimRate::NONE, SkimRate::new(0.4)] {
            let mut w_a = vec![f32::NAN; 5];
            allocation_from_free_list_into(&usage, &free_list, skim, &mut w_a);
            assert_eq!(w_a, allocation_from_free_list(&usage, &free_list, skim));
        }
        let a = [0.5, 0.2, 0.0, 0.1, 0.2];
        let c = [0.1, 0.3, 0.4, 0.0, 0.2];
        let mut merged = vec![f32::NAN; 5];
        merge_write_weighting_into(&a, &c, 0.7, 0.4, &mut merged);
        assert_eq!(merged, merge_write_weighting(&a, &c, 0.7, 0.4));
    }
}
