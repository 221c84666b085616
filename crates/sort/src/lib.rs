//! Hardware sorting models for the HiMA usage-sort primitive.
//!
//! The DNC allocation weighting needs the usage vector sorted every time
//! step; the paper (§4.3) identifies this as a bottleneck primitive and
//! builds a *local-global two-stage sort*:
//!
//! 1. each processing tile (PT) sorts its local usage slice with a 2-D
//!    multidimensional sorting algorithm ([`MdsaSorter`]) built around a
//!    P-input dual-mode pipelined bitonic sorter ([`Dpbs`]),
//! 2. the controller tile (CT) merges the `N_t` sorted runs with an
//!    `N_t`-input parallel merge sorter ([`ParallelMergeSorter`]).
//!
//! Every sorter here provides both a **functional** implementation (the
//! actual permutation, needed by the DNC model) and a **cycle model** (the
//! latency formulas from the paper, needed by the architectural simulator).
//! The baseline it replaces is a centralized merge sort
//! ([`CentralizedMergeSorter`]) at `N log₂ N` cycles.
//!
//! # Example
//!
//! ```
//! use hima_sort::{CentralizedMergeSorter, SortEngine, TwoStageSorter};
//!
//! let usage: Vec<f32> = (0..1024).map(|i| ((i * 37) % 1024) as f32 / 1024.0).collect();
//! let two_stage = TwoStageSorter::new(4, 1024);
//! let baseline = CentralizedMergeSorter;
//!
//! let sorted = two_stage.argsort(&usage);
//! assert!(usage[sorted[0]] <= usage[sorted[1]]);
//! // Paper §4.3: 389 cycles vs N log N = 10240.
//! assert_eq!(two_stage.latency_cycles(1024), 389);
//! assert_eq!(baseline.latency_cycles(1024), 10240);
//! ```

pub mod bitonic;
pub mod dpbs;
pub mod mdsa;
pub mod merge;
pub mod pms;
pub mod two_stage;

pub use bitonic::BitonicNetwork;
pub use dpbs::Dpbs;
pub use mdsa::MdsaSorter;
pub use merge::CentralizedMergeSorter;
pub use pms::ParallelMergeSorter;
pub use two_stage::TwoStageSorter;

/// A keyed element flowing through the hardware sorters: the sort key plus
/// the element's original position (the DNC needs the permutation, not just
/// the sorted values).
pub type Keyed = (f32, usize);

/// What the hardware models tie an unused lane off with: the greatest pair
/// of the keyed order (the top NaN of `total_cmp`, the top index), so
/// padding sinks below every real element — `+∞` would sink above a NaN.
pub(crate) const PAD: Keyed = (f32::from_bits(0x7fff_ffff), usize::MAX);

/// Common interface of all hardware sorter models.
///
/// Implementations sort ascending by key with ties broken by original index,
/// so results are deterministic permutations.
pub trait SortEngine {
    /// Human-readable name used in reports.
    fn name(&self) -> &'static str;

    /// Sorts `(key, index)` pairs ascending.
    fn sort_pairs(&self, input: &[Keyed]) -> Vec<Keyed>;

    /// Modeled latency in cycles for sorting `n` elements.
    fn latency_cycles(&self, n: usize) -> u64;

    /// Convenience: returns the permutation that sorts `keys` ascending.
    fn argsort(&self, keys: &[f32]) -> Vec<usize> {
        let pairs: Vec<Keyed> = keys.iter().copied().zip(0..).collect();
        self.sort_pairs(&pairs).into_iter().map(|(_, i)| i).collect()
    }

    /// Allocation-free argsort into a reused index buffer — the
    /// definition the DNC memory unit's `FreeList` is held to.
    ///
    /// Every `SortEngine` sorts ascending by key with ties broken by
    /// original index, a *strict* total order with exactly one sorted
    /// permutation — so this default, which models no hardware dataflow,
    /// returns bit-for-bit the permutation [`SortEngine::argsort`]
    /// produces through [`SortEngine::sort_pairs`]. It sorts **integers**:
    /// each key is packed with its index into one word, `ordered_bits(key)
    /// << 32 | index`, whose unsigned order *is* the keyed order
    /// (`total_cmp`, so `-0.0 < +0.0` and NaNs sort by sign and payload;
    /// then the index). Every packed word is distinct, so any correct sort
    /// of them yields the pinned permutation, and the comparison is one
    /// integer compare with no indirection — [`argsort_by_comparator`] is
    /// the definition it is held to. The words live in `out` itself, which
    /// is cleared and refilled; after its capacity first reaches
    /// `keys.len()` the call performs no heap allocation (`sort_unstable`
    /// is in-place).
    ///
    /// # Panics
    ///
    /// Panics if `keys` holds more than `u32::MAX` elements.
    fn argsort_into(&self, keys: &[f32], out: &mut Vec<usize>) {
        #[cfg(target_pointer_width = "64")]
        {
            assert!(keys.len() <= u32::MAX as usize, "argsort index must fit 32 bits");
            out.clear();
            out.extend(keys.iter().zip(0usize..).map(|(k, i)| (ordered_bits(*k) as usize) << 32 | i));
            out.sort_unstable();
            out.iter_mut().for_each(|word| *word &= u32::MAX as usize);
        }
        // A narrower `usize` cannot hold a packed word.
        #[cfg(not(target_pointer_width = "64"))]
        argsort_by_comparator(keys, out);
    }
}

/// The bits of `key` as an unsigned integer whose order is
/// [`f32::total_cmp`]'s: a set sign bit flips every bit (more negative
/// sorts lower), a clear one sets it (every positive above every
/// negative).
pub fn ordered_bits(key: f32) -> u32 {
    let bits = key.to_bits();
    bits ^ (((bits as i32 >> 31) as u32) | 0x8000_0000)
}

/// The argsort as defined — the index buffer sorted in place by
/// `total_cmp` on the keys, ties by index. It is the reference that
/// `tests/properties.rs`'s `argsort_into_matches_the_comparator_reference`
/// holds [`SortEngine::argsort_into`] to and that `hima-bench`'s `fig7`
/// experiment checks the hardware sorters against, and it is
/// `argsort_into`'s own body where a narrower `usize` cannot hold a packed
/// word.
pub fn argsort_by_comparator(keys: &[f32], out: &mut Vec<usize>) {
    out.clear();
    out.extend(0..keys.len());
    out.sort_unstable_by(|&i, &j| keys[i].total_cmp(&keys[j]).then(i.cmp(&j)));
}

/// Total-order comparison for keyed pairs (ascending key, then index).
pub(crate) fn keyed_cmp(a: &Keyed, b: &Keyed) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Checks that `pairs` is sorted ascending under the keyed total order
/// (ascending key, ties broken by index).
pub(crate) fn is_sorted(pairs: &[Keyed]) -> bool {
    pairs.windows(2).all(|w| keyed_cmp(&w[0], &w[1]) != std::cmp::Ordering::Greater)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_sorted_detects_order() {
        assert!(is_sorted(&[(0.0, 0), (0.0, 1), (1.0, 0)]));
        assert!(!is_sorted(&[(1.0, 0), (0.0, 1)]));
        assert!(!is_sorted(&[(0.0, 1), (0.0, 0)]), "index ties must be ascending");
    }

    #[test]
    fn argsort_default_impl_matches_sort_pairs() {
        let keys = [0.5f32, 0.1, 0.9, 0.1];
        let s = CentralizedMergeSorter;
        assert_eq!(s.argsort(&keys), vec![1, 3, 0, 2]);
    }

    #[test]
    fn argsort_into_matches_argsort_for_every_engine() {
        // The total order is strict (index tiebreak), so the packed-key
        // fast path must reproduce the hardware-modeled permutation
        // exactly — ties, duplicates, signed zeros, infinities and NaNs
        // (which `total_cmp` orders by sign and payload) and all.
        let specials = [
            0.0f32,
            -0.0,
            -1.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fff_ffff),
            f32::MIN_POSITIVE,
            -2.5e-41,
        ];
        for n in [0usize, 1, 63, 64, 65, 97, 1024] {
            let duplicated: Vec<f32> = (0..n).map(|i| ((i * 37) % 13) as f32 / 13.0).collect();
            let mixed: Vec<f32> = (0..n)
                .map(|i| match i % 3 {
                    0 => specials[(i / 3) % specials.len()],
                    _ => ((i * 193 + 71) % 509) as f32 / 254.0 - 1.0,
                })
                .collect();
            let check = |engine: &dyn SortEngine| {
                // Reuse clears and refills.
                let mut out = vec![7usize];
                for keys in [&duplicated, &mixed] {
                    engine.argsort_into(keys, &mut out);
                    assert_eq!(out, engine.argsort(keys), "{} n={n}", engine.name());
                }
            };
            check(&CentralizedMergeSorter);
            // A two-stage sorter is sized for its (non-empty) input.
            if n > 0 {
                check(&TwoStageSorter::new(4.min(n), n));
            }
        }
    }

    #[test]
    fn ordered_bits_order_is_total_cmp() {
        let keys = [
            -f32::NAN,
            f32::NEG_INFINITY,
            -1.0,
            -2.5e-41,
            -0.0,
            0.0,
            2.5e-41,
            1.0,
            f32::INFINITY,
            f32::NAN,
            f32::from_bits(0x7fff_ffff),
        ];
        for a in keys {
            for b in keys {
                assert_eq!(ordered_bits(a).cmp(&ordered_bits(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
        assert_eq!(ordered_bits(PAD.0), u32::MAX, "padding is the top of the order");
    }
}
