//! Centralized merge sorter — the baseline the two-stage sort replaces.
//!
//! Farm-style DNC accelerators sort the usage vector with a single merge
//! sorter at the controller; the paper models its latency as `N log₂ N`
//! cycles for a length-`N` vector (§4.3). The functional implementation is a
//! real bottom-up merge sort (not a call into `std`), so tests can cross-check
//! the hardware models against an independently written algorithm.

use crate::{keyed_cmp, Keyed, SortEngine};
use serde::{Deserialize, Serialize};

/// Centralized merge sorter with `N log₂ N` cycle latency.
///
/// # Example
///
/// ```
/// use hima_sort::{CentralizedMergeSorter, SortEngine};
///
/// assert_eq!(CentralizedMergeSorter.latency_cycles(1024), 10 * 1024);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CentralizedMergeSorter;

impl CentralizedMergeSorter {
    /// Merges two sorted runs into one sorted output.
    pub(crate) fn merge_runs(a: &[Keyed], b: &[Keyed]) -> Vec<Keyed> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if keyed_cmp(&a[i], &b[j]) != std::cmp::Ordering::Greater {
                out.push(a[i]);
                i += 1;
            } else {
                out.push(b[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out
    }
}

impl SortEngine for CentralizedMergeSorter {
    fn name(&self) -> &'static str {
        "centralized-merge"
    }

    fn sort_pairs(&self, input: &[Keyed]) -> Vec<Keyed> {
        // Bottom-up merge sort.
        if input.len() <= 1 {
            return input.to_vec();
        }
        let mut runs: Vec<Vec<Keyed>> = input.iter().map(|&p| vec![p]).collect();
        while runs.len() > 1 {
            let mut next = Vec::with_capacity(runs.len().div_ceil(2));
            let mut iter = runs.chunks(2);
            for chunk in &mut iter {
                match chunk {
                    [a, b] => next.push(Self::merge_runs(a, b)),
                    [a] => next.push(a.clone()),
                    _ => unreachable!("chunks(2) yields 1 or 2 runs"),
                }
            }
            runs = next;
        }
        runs.pop().unwrap_or_default()
    }

    /// `N · ⌈log₂ N⌉` cycles (paper §4.3): 10 240 cycles at `N = 1024`.
    fn latency_cycles(&self, n: usize) -> u64 {
        if n <= 1 {
            return n as u64;
        }
        let log = (n.next_power_of_two().trailing_zeros()) as u64;
        n as u64 * log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(keys: &[f32]) -> Vec<Keyed> {
        keys.iter().copied().zip(0..).collect()
    }

    #[test]
    fn paper_latency_at_1024() {
        assert_eq!(CentralizedMergeSorter.latency_cycles(1024), 10240);
    }

    #[test]
    fn latency_edge_cases() {
        assert_eq!(CentralizedMergeSorter.latency_cycles(0), 0);
        assert_eq!(CentralizedMergeSorter.latency_cycles(1), 1);
        assert_eq!(CentralizedMergeSorter.latency_cycles(2), 2);
        // Non-power-of-two rounds the log up.
        assert_eq!(CentralizedMergeSorter.latency_cycles(1000), 10_000);
    }

    #[test]
    fn sorts_random_input() {
        let keys: Vec<f32> = (0..137).map(|i| ((i * 89 + 7) % 137) as f32).collect();
        let out = CentralizedMergeSorter.sort_pairs(&pairs(&keys));
        assert!(crate::is_sorted(&out));
        assert_eq!(out.len(), 137);
    }

    #[test]
    fn merge_runs_interleaves() {
        let a = [(1.0, 0), (3.0, 1)];
        let b = [(2.0, 2), (4.0, 3)];
        let m = CentralizedMergeSorter::merge_runs(&a, &b);
        let keys: Vec<f32> = m.iter().map(|p| p.0).collect();
        assert_eq!(keys, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn merge_runs_handles_empty() {
        let a = [(1.0, 0)];
        assert_eq!(CentralizedMergeSorter::merge_runs(&a, &[]), a.to_vec());
        assert_eq!(CentralizedMergeSorter::merge_runs(&[], &a), a.to_vec());
    }

    #[test]
    fn stable_on_equal_keys() {
        let input = [(1.0, 2), (1.0, 0), (1.0, 1)];
        let out = CentralizedMergeSorter.sort_pairs(&input);
        assert_eq!(out, vec![(1.0, 0), (1.0, 1), (1.0, 2)]);
    }

    #[test]
    fn trivial_inputs() {
        assert!(CentralizedMergeSorter.sort_pairs(&[]).is_empty());
        assert_eq!(CentralizedMergeSorter.sort_pairs(&[(9.0, 4)]), vec![(9.0, 4)]);
    }
}
