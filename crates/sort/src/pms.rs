//! `N_t`-input parallel merge sorter (PMS), after Mashimo et al. (FCCM 2017),
//! used by the controller tile for the global stage of the two-stage sort.
//!
//! The PMS consumes `N_t` pre-sorted runs held in per-bank usage buffers and
//! emits up to `N_t` sorted outputs per cycle once its pipeline is full. The
//! paper pipelines the 4-input PMS into `D_PMS = 7` stages and reports the
//! global merge of `N_t = 4` runs of `n = 256` completing in
//! `n + D_PMS = 263` cycles.

use crate::{keyed_cmp, Keyed};

/// A `k`-input parallel merge sorter emitting `k` elements per cycle.
///
/// # Example
///
/// ```
/// use hima_sort::ParallelMergeSorter;
///
/// let pms = ParallelMergeSorter::new(4);
/// assert_eq!(pms.pipeline_depth(), 7); // paper §4.3
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelMergeSorter {
    ways: usize,
}

impl ParallelMergeSorter {
    /// Creates a `k`-way PMS.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "PMS needs at least one input run");
        Self { ways: k }
    }

    /// Number of input runs merged concurrently (= outputs per cycle).
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Pipeline depth `D_PMS = 3·log₂(k) + 1` — 7 stages for the paper's
    /// 4-input PMS.
    pub fn pipeline_depth(&self) -> u64 {
        let log = self.ways.next_power_of_two().trailing_zeros() as u64;
        3 * log + 1
    }

    /// Merges `runs` (each must be sorted ascending) into one sorted output,
    /// also returning the modeled cycle count
    /// `⌈total / k⌉ + D_PMS`.
    ///
    /// # Panics
    ///
    /// Panics if more than `ways` runs are supplied or any run is unsorted.
    pub fn merge(&self, runs: &[Vec<Keyed>]) -> (Vec<Keyed>, u64) {
        assert!(runs.len() <= self.ways, "{} runs exceed a {}-way PMS", runs.len(), self.ways);
        for (i, run) in runs.iter().enumerate() {
            assert!(crate::is_sorted(run), "input run {i} is not sorted");
        }

        // k-way merge with read pointers per bank — mirrors the rd_ptr
        // bookkeeping in Fig. 7(b).
        let total: usize = runs.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        let mut ptrs = vec![0usize; runs.len()];
        while out.len() < total {
            let mut best: Option<(usize, Keyed)> = None;
            for (bank, run) in runs.iter().enumerate() {
                if ptrs[bank] < run.len() {
                    let cand = run[ptrs[bank]];
                    match best {
                        None => best = Some((bank, cand)),
                        Some((_, cur)) if keyed_cmp(&cand, &cur) == std::cmp::Ordering::Less => {
                            best = Some((bank, cand));
                        }
                        _ => {}
                    }
                }
            }
            let (bank, v) = best.expect("non-empty banks remain while out < total");
            ptrs[bank] += 1;
            out.push(v);
        }

        let cycles = (total as u64).div_ceil(self.ways as u64) + self.pipeline_depth();
        (out, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(keys: &[f32]) -> Vec<Keyed> {
        keys.iter().copied().enumerate().map(|(i, k)| (k, i)).collect()
    }

    #[test]
    fn paper_pipeline_depth_and_cycles() {
        let pms = ParallelMergeSorter::new(4);
        assert_eq!(pms.pipeline_depth(), 7);
        // 4 runs of 256: 1024/4 + 7 = 263 cycles (paper §4.3).
        let runs: Vec<Vec<Keyed>> = (0..4)
            .map(|b| (0..256).map(|i| ((i * 4 + b) as f32, b * 256 + i)).collect())
            .collect();
        let (out, cycles) = pms.merge(&runs);
        assert_eq!(cycles, 263);
        assert!(crate::is_sorted(&out));
        assert_eq!(out.len(), 1024);
    }

    #[test]
    fn merges_unequal_runs() {
        let pms = ParallelMergeSorter::new(3);
        let (out, _) = pms.merge(&[run(&[1.0, 4.0]), run(&[2.0]), run(&[0.0, 3.0, 5.0])]);
        let keys: Vec<f32> = out.iter().map(|p| p.0).collect();
        assert_eq!(keys, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn merges_with_empty_runs() {
        let pms = ParallelMergeSorter::new(4);
        let (out, _) = pms.merge(&[run(&[1.0]), vec![], run(&[0.5]), vec![]]);
        let keys: Vec<f32> = out.iter().map(|p| p.0).collect();
        assert_eq!(keys, vec![0.5, 1.0]);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let pms = ParallelMergeSorter::new(2);
        let (out, cycles) = pms.merge(&[]);
        assert!(out.is_empty());
        assert_eq!(cycles, pms.pipeline_depth());
    }

    #[test]
    fn ties_resolve_by_index() {
        let pms = ParallelMergeSorter::new(2);
        let (out, _) = pms.merge(&[vec![(1.0, 5)], vec![(1.0, 2)]]);
        assert_eq!(out, vec![(1.0, 2), (1.0, 5)]);
    }

    #[test]
    #[should_panic(expected = "is not sorted")]
    fn rejects_unsorted_run() {
        ParallelMergeSorter::new(2).merge(&[run(&[2.0, 1.0])]);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn rejects_too_many_runs() {
        ParallelMergeSorter::new(1).merge(&[run(&[1.0]), run(&[2.0])]);
    }

    #[test]
    fn depth_scales_with_ways() {
        assert_eq!(ParallelMergeSorter::new(2).pipeline_depth(), 4);
        assert_eq!(ParallelMergeSorter::new(8).pipeline_depth(), 10);
        assert_eq!(ParallelMergeSorter::new(16).pipeline_depth(), 13);
    }
}
