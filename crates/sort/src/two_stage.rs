//! The local-global two-stage usage sort (paper §4.3, Fig. 7).
//!
//! Stage 1: every PT sorts its local `n = N/N_t` usage slice with an
//! [`MdsaSorter`] — all PTs run in parallel, so stage-1 latency is a single
//! MDSA sort. Stage 2: the CT merges the `N_t` sorted runs with an
//! [`ParallelMergeSorter`], adding `n + D_PMS` cycles (local runs stream out
//! of the PT buffers one element per cycle per bank).
//!
//! For the paper's example (`N = 1024`, `N_t = 4`, `P = 16`):
//! `6×(16+5) + 256 + 7 = 389` cycles, vs `N log₂ N = 10 240` for the
//! centralized baseline — a 26× latency reduction.

use crate::mdsa::MdsaSorter;
use crate::pms::ParallelMergeSorter;
use crate::{Keyed, SortEngine};

/// Two-stage distributed usage sorter over `N_t` tiles.
///
/// # Example
///
/// ```
/// use hima_sort::{SortEngine, TwoStageSorter};
///
/// let sorter = TwoStageSorter::new(4, 1024);
/// assert_eq!(sorter.latency_cycles(1024), 389); // paper §4.3
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoStageSorter {
    tiles: usize,
    total_len: usize,
}

impl TwoStageSorter {
    /// Creates a sorter for a length-`total_len` vector distributed over
    /// `tiles` PTs.
    ///
    /// # Panics
    ///
    /// Panics if `tiles == 0` or `total_len == 0`.
    pub fn new(tiles: usize, total_len: usize) -> Self {
        assert!(tiles > 0, "need at least one tile");
        assert!(total_len > 0, "need a non-empty vector");
        Self { tiles, total_len }
    }

    /// Local slice length `n = ⌈N / N_t⌉`.
    pub fn local_len(&self) -> usize {
        self.total_len.div_ceil(self.tiles)
    }

    /// The per-tile stage-1 sorter.
    pub fn local_sorter(&self) -> MdsaSorter {
        MdsaSorter::for_len(self.local_len())
    }

    /// The CT stage-2 merger.
    pub fn global_merger(&self) -> ParallelMergeSorter {
        ParallelMergeSorter::new(self.tiles)
    }

    /// Stage-1 latency: one MDSA sort (PTs run in parallel).
    pub fn stage1_cycles(&self) -> u64 {
        self.local_sorter().latency_cycles(self.local_len())
    }

    /// Stage-2 latency: `n + D_PMS`.
    pub fn stage2_cycles(&self) -> u64 {
        self.local_len() as u64 + self.global_merger().pipeline_depth()
    }

    /// Splits `input` into `N_t` contiguous slices, as the row-wise usage
    /// partition stores them.
    fn shard<'a>(&self, input: &'a [Keyed]) -> Vec<&'a [Keyed]> {
        let n = self.local_len();
        (0..self.tiles)
            .map(|t| {
                let lo = (t * n).min(input.len());
                let hi = ((t + 1) * n).min(input.len());
                &input[lo..hi]
            })
            .collect()
    }
}

impl SortEngine for TwoStageSorter {
    fn name(&self) -> &'static str {
        "two-stage"
    }

    fn sort_pairs(&self, input: &[Keyed]) -> Vec<Keyed> {
        assert_eq!(
            input.len(),
            self.total_len,
            "two-stage sorter configured for {} elements, got {}",
            self.total_len,
            input.len()
        );
        let local = self.local_sorter();
        let runs: Vec<Vec<Keyed>> = self.shard(input).into_iter().map(|s| local.sort_pairs(s)).collect();
        let (merged, _) = self.global_merger().merge(&runs);
        merged
    }

    /// `6(P + D_DPBS) + n + D_PMS` — 389 cycles for the paper's example.
    fn latency_cycles(&self, _n: usize) -> u64 {
        self.stage1_cycles() + self.stage2_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::CentralizedMergeSorter;

    fn pairs(keys: &[f32]) -> Vec<Keyed> {
        keys.iter().copied().zip(0..).collect()
    }

    #[test]
    fn paper_example_389_cycles() {
        let s = TwoStageSorter::new(4, 1024);
        assert_eq!(s.local_len(), 256);
        assert_eq!(s.stage1_cycles(), 126);
        assert_eq!(s.stage2_cycles(), 263);
        assert_eq!(s.latency_cycles(1024), 389);
    }

    #[test]
    fn speedup_over_centralized_exceeds_20x() {
        let s = TwoStageSorter::new(4, 1024);
        let base = CentralizedMergeSorter.latency_cycles(1024);
        let ours = s.latency_cycles(1024);
        assert!(base / ours >= 20, "{base} / {ours}");
    }

    #[test]
    fn matches_reference_sort() {
        let keys: Vec<f32> = (0..1024).map(|i| ((i * 167 + 13) % 1024) as f32).collect();
        let s = TwoStageSorter::new(4, 1024);
        let got = s.sort_pairs(&pairs(&keys));
        let want = CentralizedMergeSorter.sort_pairs(&pairs(&keys));
        assert_eq!(got, want);
    }

    #[test]
    fn works_with_uneven_shards() {
        let keys: Vec<f32> = (0..100).map(|i| ((i * 37 + 5) % 100) as f32).collect();
        let s = TwoStageSorter::new(3, 100);
        let got = s.sort_pairs(&pairs(&keys));
        assert!(crate::is_sorted(&got));
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn single_tile_degenerates_to_local_sort() {
        let keys: Vec<f32> = (0..64).map(|i| ((i * 23) % 64) as f32).collect();
        let s = TwoStageSorter::new(1, 64);
        let got = s.sort_pairs(&pairs(&keys));
        assert!(crate::is_sorted(&got));
    }

    #[test]
    fn more_tiles_reduce_latency() {
        let l4 = TwoStageSorter::new(4, 1024).latency_cycles(1024);
        let l16 = TwoStageSorter::new(16, 1024).latency_cycles(1024);
        assert!(l16 < l4, "{l16} !< {l4}");
    }

    #[test]
    #[should_panic(expected = "configured for")]
    fn rejects_wrong_length() {
        TwoStageSorter::new(2, 16).sort_pairs(&pairs(&[1.0, 2.0]));
    }

    #[test]
    fn argsort_yields_usage_free_list() {
        // The DNC free list: indices of the least-used slots first.
        let usage = [0.9f32, 0.1, 0.5, 0.0];
        let s = TwoStageSorter::new(2, 4);
        assert_eq!(s.argsort(&usage), vec![3, 1, 2, 0]);
    }
}
