//! Dual-mode pipelined bitonic sorter (DPBS), after Norollah et al. (RTHS,
//! TVLSI 2019), cited by the paper as the row/column sorter inside each PT's
//! MDSA unit.
//!
//! A `P`-input DPBS accepts one `P`-element vector per cycle and emits it
//! sorted — in either ascending or descending order (the "dual mode" needed
//! by shear-style 2-D sorting where adjacent rows sort in opposite
//! directions) — after a fixed pipeline depth. The paper pipelines the
//! 16-input DPBS into `D_DPBS = 5` stages, i.e. `log₂(P) + 1`.

use crate::bitonic::{BitonicNetwork, Direction};
use crate::Keyed;
use serde::{Deserialize, Serialize};

/// A `P`-input dual-mode pipelined bitonic sorter.
///
/// # Example
///
/// ```
/// use hima_sort::Dpbs;
///
/// let dpbs = Dpbs::new(16);
/// assert_eq!(dpbs.pipeline_depth(), 5); // paper §4.3
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dpbs {
    network: BitonicNetwork,
}

impl Dpbs {
    /// Creates a DPBS with `p` input lanes.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        Self { network: BitonicNetwork::new(p) }
    }

    /// Pipeline depth `D_DPBS = log₂(P) + 1` (5 for the paper's P = 16).
    pub fn pipeline_depth(&self) -> u64 {
        self.network.padded_width().trailing_zeros() as u64 + 1
    }

    /// Sorts one vector in the requested direction.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != lanes()`.
    pub(crate) fn sort_vector(&self, input: &[Keyed], dir: Direction) -> Vec<Keyed> {
        self.network.sort_directed(input, dir)
    }

    /// Streams `vectors` through the sorter with per-vector directions,
    /// returning the sorted vectors and the total cycle count:
    /// one vector enters per cycle, plus the pipeline drain.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` and `dirs` differ in length or any vector has the
    /// wrong width.
    pub fn stream(&self, vectors: &[Vec<Keyed>], dirs: &[Direction]) -> (Vec<Vec<Keyed>>, u64) {
        assert_eq!(vectors.len(), dirs.len(), "one direction per vector");
        let out = vectors
            .iter()
            .zip(dirs)
            .map(|(v, &d)| self.sort_vector(v, d))
            .collect();
        let cycles = vectors.len() as u64 + self.pipeline_depth();
        (out, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(keys: &[f32]) -> Vec<Keyed> {
        keys.iter().copied().zip(0..).collect()
    }

    #[test]
    fn paper_pipeline_depth() {
        assert_eq!(Dpbs::new(16).pipeline_depth(), 5);
        assert_eq!(Dpbs::new(4).pipeline_depth(), 3);
        assert_eq!(Dpbs::new(32).pipeline_depth(), 6);
    }

    #[test]
    fn dual_mode_sorts_both_directions() {
        let dpbs = Dpbs::new(4);
        let input = pairs(&[2.0, 4.0, 1.0, 3.0]);
        let asc: Vec<f32> = dpbs.sort_vector(&input, Direction::Ascending).iter().map(|p| p.0).collect();
        let desc: Vec<f32> = dpbs.sort_vector(&input, Direction::Descending).iter().map(|p| p.0).collect();
        assert_eq!(asc, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(desc, vec![4.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn streaming_cost_is_fill_plus_drain() {
        let dpbs = Dpbs::new(8);
        let vectors: Vec<Vec<Keyed>> = (0..10)
            .map(|v| (0..8).map(|i| (((v * 13 + i * 7) % 11) as f32, i)).collect())
            .collect();
        let dirs = vec![Direction::Ascending; 10];
        let (sorted, cycles) = dpbs.stream(&vectors, &dirs);
        assert_eq!(cycles, 10 + dpbs.pipeline_depth());
        for v in sorted {
            assert!(crate::is_sorted(&v));
        }
    }

    #[test]
    #[should_panic(expected = "one direction per vector")]
    fn stream_validates_lengths() {
        let dpbs = Dpbs::new(2);
        dpbs.stream(&[vec![(1.0, 0), (0.0, 1)]], &[]);
    }
}
