//! Multidimensional sorting algorithm (MDSA) tile sorter — stage 1 of the
//! two-stage usage sort (paper §4.3, citing RTHS).
//!
//! A local usage vector of length `n` is reshaped into a `P × P` matrix
//! (`P = ⌈√n⌉`) held in a register file, and sorted by alternating row and
//! column passes through the tile's [`Dpbs`]. Row passes sort in snake
//! (boustrophedon) order — even rows ascending, odd rows descending — and
//! column passes sort ascending; this is the classic shear-sort schedule,
//! which converges to a snake-ordered (hence globally sorted) matrix.
//!
//! **Cycle model.** The paper reports the 256-element sort completing in
//! 6 phases of `(P + D_DPBS)` cycles each — `6 × (16 + 5) = 126` cycles.
//! We use the paper's phase count for the latency model
//! (`phases = ⌈log₂ P⌉ + 2`, which yields 6 at `P = 16`) while the
//! functional implementation runs shear-sort passes until convergence, so
//! the produced permutation is always correct even for adversarial inputs
//! that need the full `⌈log₂ P⌉ + 1` row/column rounds.

use crate::bitonic::Direction;
use crate::dpbs::Dpbs;
use crate::{keyed_cmp, Keyed, SortEngine};
use serde::{Deserialize, Serialize};

/// MDSA 2-D tile sorter built around a `P`-input DPBS.
///
/// # Example
///
/// ```
/// use hima_sort::{MdsaSorter, SortEngine};
///
/// let mdsa = MdsaSorter::for_len(256);
/// assert_eq!(mdsa.p(), 16);
/// assert_eq!(mdsa.latency_cycles(256), 126); // paper §4.3
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MdsaSorter {
    p: usize,
}

impl MdsaSorter {
    /// Creates an MDSA sorter with a `p × p` register file.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "MDSA needs a non-empty register file");
        Self { p }
    }

    /// Sorter sized for local vectors of length `n`: `P = ⌈√n⌉`.
    pub fn for_len(n: usize) -> Self {
        let mut p = (n as f64).sqrt().ceil() as usize;
        if p == 0 {
            p = 1;
        }
        Self::new(p)
    }

    /// Register-file dimension `P`.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The embedded dual-mode pipelined bitonic sorter.
    pub fn dpbs(&self) -> Dpbs {
        Dpbs::new(self.p)
    }

    /// Modeled phase count: `⌈log₂ P⌉ + 2` (6 phases at `P = 16`, matching
    /// the paper).
    pub fn modeled_phases(&self) -> u64 {
        (self.p.next_power_of_two().trailing_zeros() as u64) + 2
    }

    /// Sorts and additionally reports how many row/column passes the
    /// functional shear sort needed to converge.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() > p²`.
    pub(crate) fn sort_with_phases(&self, input: &[Keyed]) -> (Vec<Keyed>, u64) {
        let p = self.p;
        assert!(input.len() <= p * p, "input of {} exceeds {p}x{p} register file", input.len());
        if input.len() <= 1 {
            return (input.to_vec(), 0);
        }
        let dpbs = self.dpbs();

        // Load into the register file, padding with top-of-order sentinels.
        let mut grid: Vec<Vec<Keyed>> = (0..p)
            .map(|r| {
                (0..p)
                    .map(|c| *input.get(r * p + c).unwrap_or(&crate::PAD))
                    .collect()
            })
            .collect();

        let snake_dir = |row: usize| if row.is_multiple_of(2) { Direction::Ascending } else { Direction::Descending };
        let mut phases = 0u64;
        // Shear sort needs at most ⌈log₂ p⌉ + 1 row/column rounds; cap the
        // loop there and finish with one cleanup row pass.
        let max_rounds = (p.next_power_of_two().trailing_zeros() as u64) + 1;

        for _round in 0..max_rounds {
            // Row phase: snake order.
            for (r, row) in grid.iter_mut().enumerate() {
                *row = dpbs.sort_vector(row, snake_dir(r));
            }
            phases += 1;
            if Self::is_snake_sorted(&grid) {
                break;
            }
            // Column phase: ascending top-to-bottom.
            for c in 0..p {
                let col: Vec<Keyed> = grid.iter().map(|row| row[c]).collect();
                let sorted = dpbs.sort_vector(&col, Direction::Ascending);
                for (r, v) in sorted.into_iter().enumerate() {
                    grid[r][c] = v;
                }
            }
            phases += 1;
        }
        // Cleanup: rows in plain ascending order so row-major reading is the
        // final sorted order (unfolds the snake).
        let mut out = Vec::with_capacity(p * p);
        for (r, row) in grid.iter().enumerate() {
            let mut row = row.clone();
            if r % 2 == 1 {
                row.reverse();
            }
            out.extend(row);
        }
        phases += 1;
        out.truncate(input.len());
        debug_assert!(crate::is_sorted(&out), "MDSA must produce a sorted run");
        (out, phases)
    }

    fn is_snake_sorted(grid: &[Vec<Keyed>]) -> bool {
        let mut prev: Option<Keyed> = None;
        for (r, row) in grid.iter().enumerate() {
            let iter: Box<dyn Iterator<Item = &Keyed>> = if r % 2 == 0 {
                Box::new(row.iter())
            } else {
                Box::new(row.iter().rev())
            };
            for v in iter {
                if let Some(p) = prev {
                    if keyed_cmp(&p, v) == std::cmp::Ordering::Greater {
                        return false;
                    }
                }
                prev = Some(*v);
            }
        }
        true
    }
}

impl SortEngine for MdsaSorter {
    fn name(&self) -> &'static str {
        "mdsa"
    }

    fn sort_pairs(&self, input: &[Keyed]) -> Vec<Keyed> {
        self.sort_with_phases(input).0
    }

    /// `phases × (P + D_DPBS)` — 126 cycles for n = 256, P = 16 (paper §4.3).
    fn latency_cycles(&self, _n: usize) -> u64 {
        self.modeled_phases() * (self.p as u64 + self.dpbs().pipeline_depth())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(keys: &[f32]) -> Vec<Keyed> {
        keys.iter().copied().zip(0..).collect()
    }

    #[test]
    fn paper_latency_figures() {
        // n = 256 on a 16x16 RF: 6 * (16 + 5) = 126 cycles.
        let mdsa = MdsaSorter::for_len(256);
        assert_eq!(mdsa.p(), 16);
        assert_eq!(mdsa.modeled_phases(), 6);
        assert_eq!(mdsa.latency_cycles(256), 126);
    }

    #[test]
    fn sorts_full_grid() {
        let mdsa = MdsaSorter::new(4);
        let keys: Vec<f32> = (0..16).map(|i| ((i * 11) % 16) as f32).collect();
        let out = mdsa.sort_pairs(&pairs(&keys));
        assert!(crate::is_sorted(&out));
        assert_eq!(out.len(), 16);
        assert_eq!(out[0].0, 0.0);
        assert_eq!(out[15].0, 15.0);
    }

    #[test]
    fn sorts_partial_grid_with_padding() {
        let mdsa = MdsaSorter::new(4);
        let out = mdsa.sort_pairs(&pairs(&[5.0, 3.0, 9.0, 1.0, 7.0]));
        let keys: Vec<f32> = out.iter().map(|p| p.0).collect();
        assert_eq!(keys, vec![1.0, 3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn sorts_reverse_input() {
        let mdsa = MdsaSorter::new(8);
        let keys: Vec<f32> = (0..64).rev().map(|i| i as f32).collect();
        let out = mdsa.sort_pairs(&pairs(&keys));
        assert!(crate::is_sorted(&out));
    }

    #[test]
    fn sorts_all_equal_keys_stably_by_index() {
        let mdsa = MdsaSorter::new(4);
        let input: Vec<Keyed> = (0..16).map(|i| (1.0, 15 - i)).collect();
        let out = mdsa.sort_pairs(&input);
        for (k, (_, idx)) in out.iter().enumerate() {
            assert_eq!(*idx, k);
        }
    }

    #[test]
    fn handles_trivial_inputs() {
        let mdsa = MdsaSorter::new(4);
        assert!(mdsa.sort_pairs(&[]).is_empty());
        assert_eq!(mdsa.sort_pairs(&[(2.5, 7)]), vec![(2.5, 7)]);
    }

    #[test]
    fn for_len_dimensions() {
        assert_eq!(MdsaSorter::for_len(256).p(), 16);
        assert_eq!(MdsaSorter::for_len(64).p(), 8);
        assert_eq!(MdsaSorter::for_len(65).p(), 9);
        assert_eq!(MdsaSorter::for_len(1).p(), 1);
        assert_eq!(MdsaSorter::for_len(0).p(), 1);
    }

    #[test]
    fn functional_phases_within_shear_bound() {
        let mdsa = MdsaSorter::new(16);
        // log2(16)+1 = 5 rounds -> at most 2*5 = 10 row/col phases + cleanup.
        let keys: Vec<f32> = (0..256).map(|i| ((i * 167 + 31) % 256) as f32).collect();
        let (out, phases) = mdsa.sort_with_phases(&pairs(&keys));
        assert!(crate::is_sorted(&out));
        assert!(phases <= 11, "phases = {phases}");
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_oversized_input() {
        MdsaSorter::new(2).sort_pairs(&pairs(&[1.0, 2.0, 3.0, 4.0, 5.0]));
    }
}
