//! Bitonic sorting network — the combinational substrate of the DPBS.
//!
//! A bitonic network for `n = 2^k` inputs has `k(k+1)/2` compare-exchange
//! stages of `n/2` comparators each. [`BitonicNetwork`] executes the network
//! functionally (and counts comparator operations) and reports the stage
//! count used by pipeline-depth models.

use crate::{keyed_cmp, Keyed, SortEngine};
use serde::{Deserialize, Serialize};

/// Sort direction of a (sub-)network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Smallest key first.
    Ascending,
    /// Largest key first.
    Descending,
}

impl Direction {
    /// The opposite direction.
    pub fn flipped(self) -> Direction {
        match self {
            Direction::Ascending => Direction::Descending,
            Direction::Descending => Direction::Ascending,
        }
    }
}

/// A fully combinational bitonic sorting network for power-of-two widths.
///
/// Widths that are not powers of two are handled by padding with keys above
/// every input, stripped from the output, which matches how a hardware
/// network with tied-off lanes behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitonicNetwork {
    width: usize,
}

impl BitonicNetwork {
    /// Creates a network for `width` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "bitonic network needs at least one input");
        Self { width }
    }

    /// Width padded up to the next power of two.
    pub(crate) fn padded_width(&self) -> usize {
        self.width.next_power_of_two()
    }

    /// Number of compare-exchange stages: `k(k+1)/2` for `2^k` inputs.
    pub fn stages(&self) -> u32 {
        let k = self.padded_width().trailing_zeros();
        k * (k + 1) / 2
    }

    /// Sorts `input` in `dir` order, returning the sorted pairs and the
    /// number of compare-exchange operations actually executed.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != width`.
    pub(crate) fn sort_with_count(&self, input: &[Keyed], dir: Direction) -> (Vec<Keyed>, u64) {
        assert_eq!(input.len(), self.width, "input width mismatch");
        let n = self.padded_width();
        let mut data: Vec<Keyed> = input.to_vec();
        // Pad with top-of-order sentinels; they sink to the tail (ascending)
        // or the head (descending) and are stripped afterwards.
        data.resize(n, crate::PAD);
        let mut ops = 0u64;

        // Standard iterative bitonic sort.
        let mut k = 2;
        while k <= n {
            let mut j = k / 2;
            while j > 0 {
                for i in 0..n {
                    let l = i ^ j;
                    if l > i {
                        let block_ascending = (i & k) == 0;
                        let want_ascending = match dir {
                            Direction::Ascending => block_ascending,
                            Direction::Descending => !block_ascending,
                        };
                        let out_of_order = keyed_cmp(&data[i], &data[l]) == std::cmp::Ordering::Greater;
                        if want_ascending == out_of_order {
                            data.swap(i, l);
                        }
                        ops += 1;
                    }
                }
                j /= 2;
            }
            k *= 2;
        }

        match dir {
            Direction::Ascending => data.truncate(self.width),
            Direction::Descending => {
                data.drain(0..n - self.width);
            }
        }
        (data, ops)
    }

    /// Sorts in the requested direction, discarding the operation count.
    pub(crate) fn sort_directed(&self, input: &[Keyed], dir: Direction) -> Vec<Keyed> {
        self.sort_with_count(input, dir).0
    }
}

impl SortEngine for BitonicNetwork {
    fn name(&self) -> &'static str {
        "bitonic-network"
    }

    fn sort_pairs(&self, input: &[Keyed]) -> Vec<Keyed> {
        self.sort_directed(input, Direction::Ascending)
    }

    /// A fully pipelined network sorts one vector per cycle after filling
    /// its `stages()` pipeline; sorting a single vector costs the depth.
    fn latency_cycles(&self, _n: usize) -> u64 {
        self.stages() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(keys: &[f32]) -> Vec<Keyed> {
        keys.iter().copied().zip(0..).collect()
    }

    /// Comparators in the whole network — the closed form
    /// `sort_with_count`'s operation count is checked against.
    fn comparator_count(net: &BitonicNetwork) -> u64 {
        net.stages() as u64 * (net.padded_width() as u64 / 2)
    }

    #[test]
    fn sorts_power_of_two_inputs() {
        let net = BitonicNetwork::new(8);
        let input = pairs(&[5.0, 1.0, 4.0, 2.0, 8.0, 7.0, 3.0, 6.0]);
        let out = net.sort_pairs(&input);
        assert!(crate::is_sorted(&out));
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn sorts_non_power_of_two_inputs() {
        let net = BitonicNetwork::new(5);
        let out = net.sort_pairs(&pairs(&[3.0, 1.0, 2.0, 5.0, 4.0]));
        let keys: Vec<f32> = out.iter().map(|p| p.0).collect();
        assert_eq!(keys, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn descending_reverses_order() {
        let net = BitonicNetwork::new(6);
        let out = net.sort_directed(&pairs(&[3.0, 1.0, 2.0, 6.0, 5.0, 4.0]), Direction::Descending);
        let keys: Vec<f32> = out.iter().map(|p| p.0).collect();
        assert_eq!(keys, vec![6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn stage_count_matches_formula() {
        assert_eq!(BitonicNetwork::new(2).stages(), 1);
        assert_eq!(BitonicNetwork::new(4).stages(), 3);
        assert_eq!(BitonicNetwork::new(8).stages(), 6);
        assert_eq!(BitonicNetwork::new(16).stages(), 10);
        // Non-power-of-two pads up.
        assert_eq!(BitonicNetwork::new(9).stages(), 10);
    }

    #[test]
    fn comparator_count_matches_formula() {
        // 16-input: 10 stages * 8 comparators.
        assert_eq!(comparator_count(&BitonicNetwork::new(16)), 80);
    }

    #[test]
    fn operation_count_equals_comparators_for_pow2() {
        let net = BitonicNetwork::new(16);
        let input = pairs(&(0..16).map(|i| ((i * 7) % 16) as f32).collect::<Vec<_>>());
        let (_, ops) = net.sort_with_count(&input, Direction::Ascending);
        assert_eq!(ops, comparator_count(&net));
    }

    #[test]
    fn duplicate_keys_keep_index_order() {
        let net = BitonicNetwork::new(4);
        let out = net.sort_pairs(&[(1.0, 3), (1.0, 1), (0.0, 2), (1.0, 0)]);
        assert_eq!(out[0], (0.0, 2));
        assert_eq!(out[1], (1.0, 0));
        assert_eq!(out[2], (1.0, 1));
        assert_eq!(out[3], (1.0, 3));
    }

    #[test]
    fn flipped_direction() {
        assert_eq!(Direction::Ascending.flipped(), Direction::Descending);
        assert_eq!(Direction::Descending.flipped(), Direction::Ascending);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn rejects_wrong_width() {
        BitonicNetwork::new(4).sort_pairs(&[(1.0, 0)]);
    }
}
