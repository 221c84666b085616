//! [`LaneMask`]: which batch lanes are active at a time step.
//!
//! Ragged batching runs unequal-length sequences through one `B`-lane
//! grid: once a lane's sequence ends, the lane goes *inactive* — its
//! state is frozen and the row-block kernels **skip** its rows instead
//! of zeroing and recomputing them. The mask is the single source of
//! truth threaded through the masked kernels
//! ([`Matrix::matmul_nt_masked`](crate::Matrix::matmul_nt_masked),
//! [`PackedWeights::matmul_masked_into`](crate::PackedWeights::matmul_masked_into))
//! up to the batched DNC engines' `step_batch_masked`.
//!
//! # Example
//!
//! ```
//! use hima_tensor::LaneMask;
//!
//! // Three sequences of lengths 4, 2 and 3 at time step 2: lane 1 ended.
//! let mask = LaneMask::for_step(&[4, 2, 3], 2);
//! assert!(mask.is_active(0) && !mask.is_active(1) && mask.is_active(2));
//! assert_eq!(mask.active_count(), 2);
//! assert!(!mask.is_full());
//! ```

use serde::{Deserialize, Serialize};

/// Per-lane activity flags for one time step of a `B`-lane row block.
///
/// Row `b` of a masked kernel is computed iff `is_active(b)`; inactive
/// rows are left untouched (outputs zero, state frozen) — never zeroed
/// and recomputed.
// `Default` (zero lanes) exists so engines can `mem::take` a cached full
// mask around a `&mut self` call without allocating a replacement.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneMask {
    // The flags are the single source of truth; counts are derived on
    // demand (B is small and callers are per-step), so no cached field
    // can ever disagree with them — not even through deserialization.
    active: Vec<bool>,
}

impl LaneMask {
    /// A fully-active mask over `lanes` lanes (the uniform-length case).
    pub fn full(lanes: usize) -> Self {
        Self { active: vec![true; lanes] }
    }

    /// Builds a mask from a predicate over lane indices.
    pub fn from_fn(lanes: usize, f: impl FnMut(usize) -> bool) -> Self {
        Self { active: (0..lanes).map(f).collect() }
    }

    /// The mask of lanes still running at time step `t` when lane `b`
    /// carries a sequence of `lens[b]` steps: lane `b` is active iff
    /// `t < lens[b]`. This is the canonical mask of padded ragged
    /// batching — the lane grid steps to the longest sequence and
    /// shorter lanes drop out as their sequences end.
    pub fn for_step(lens: &[usize], t: usize) -> Self {
        Self::from_fn(lens.len(), |b| t < lens[b])
    }

    /// Number of lanes `B` the mask covers.
    pub fn lanes(&self) -> usize {
        self.active.len()
    }

    /// Whether lane `b` is active.
    ///
    /// # Panics
    ///
    /// Panics if `b >= lanes()`.
    pub fn is_active(&self, b: usize) -> bool {
        self.active[b]
    }

    /// Number of active lanes.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }

    /// Whether every lane is active (the uniform fast path: masked
    /// kernels with a full mask are bit-identical to their unmasked
    /// forms).
    pub fn is_full(&self) -> bool {
        self.active.iter().all(|a| *a)
    }

    /// Iterator over the active lane indices, ascending.
    pub fn active_lanes(&self) -> impl Iterator<Item = usize> + '_ {
        self.active.iter().enumerate().filter_map(|(b, a)| a.then_some(b))
    }

    /// The raw per-lane flags.
    pub fn as_bools(&self) -> &[bool] {
        &self.active
    }
}

impl From<Vec<bool>> for LaneMask {
    fn from(active: Vec<bool>) -> Self {
        Self { active }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mask_is_full() {
        let m = LaneMask::full(3);
        assert_eq!(m.lanes(), 3);
        assert_eq!(m.active_count(), 3);
        assert!(m.is_full());
        assert_eq!(m.active_lanes().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn for_step_tracks_sequence_ends() {
        let lens = [3usize, 1, 2];
        assert!(LaneMask::for_step(&lens, 0).is_full());
        let t1 = LaneMask::for_step(&lens, 1);
        assert_eq!(t1.as_bools(), &[true, false, true]);
        assert_eq!(t1.active_count(), 2);
        let t2 = LaneMask::for_step(&lens, 2);
        assert_eq!(t2.active_lanes().collect::<Vec<_>>(), vec![0]);
        let t3 = LaneMask::for_step(&lens, 3);
        assert_eq!(t3.active_count(), 0);
    }

    #[test]
    fn from_fn_and_from_bools_agree() {
        let a = LaneMask::from_fn(4, |b| b % 2 == 0);
        let b = LaneMask::from(vec![true, false, true, false]);
        assert_eq!(a, b);
        assert_eq!(a.active_count(), 2);
    }

    #[test]
    fn zero_lane_mask_is_degenerate_but_valid() {
        let m = LaneMask::full(0);
        assert_eq!(m.lanes(), 0);
        assert!(m.is_full(), "vacuously full");
        assert_eq!(m.active_count(), 0);
    }

    #[test]
    #[should_panic]
    fn is_active_bounds_checked() {
        LaneMask::full(2).is_active(2);
    }
}
