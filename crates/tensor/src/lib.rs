//! Dense matrix/vector math and hardware-oriented arithmetic for the HiMA
//! reproduction.
//!
//! This crate is the numerics substrate shared by the functional DNC model
//! ([`hima-dnc`]), the architectural simulator ([`hima-engine`]) and the
//! experiment harnesses. It provides:
//!
//! * [`Matrix`] — a small row-major `f32` matrix with the exact set of
//!   operations the DNC dataflow needs (transpose, mat-vec, outer product,
//!   element-wise ops, row normalization),
//! * vector helpers in [`vector`] (dot products, norms, element-wise ops),
//! * the transcendentals in [`transcend`] — `exp`, `sigmoid`, `tanh`,
//!   `softplus` and the exact softmax as in-repo sequences of single
//!   rounded `f32` operations (the host's libm is never consulted, so the
//!   bits are the same everywhere), at lane width, with the fused LSTM
//!   gate pass; [`activation`] re-exports the three the DNC names,
//! * the softmax front ends in [`mod@softmax`] and the hardware
//!   approximation of Section 5.2 of the paper — piece-wise-linear + LUT,
//! * the Q-format fixed-point rounding of [`fixed`] ([`QFormat`]) that
//!   models HiMA's 32-bit datapath,
//! * [`LaneMask`] and the masked row-block products
//!   ([`Matrix::matmul_nt_masked`], [`PackedWeights::matmul_masked_into`])
//!   that let ragged batches skip — not zero-and-recompute — the rows of
//!   lanes whose sequences have ended,
//! * [`PackedWeights`] — a fixed weight matrix stored once in panels of
//!   16 outputs and its bit-exact, output-packed vector product: what
//!   the engine's controller, interface and output projections run
//!   ([`mod@packed`]),
//! * the head-fused products of [`mod@fused`] — the kernels for the
//!   memory unit's `M` and `L`, which change every step: a
//!   transposing row-dot kernel (with the row norms riding along) and
//!   `mᵀ · w_h` for all heads, each one pass over the matrix at vector
//!   width with the reference's bits,
//! * the history-write kernels of [`mod@history`] — the erase/add memory
//!   write and the linkage update, element-wise at vector width,
//! * the usage sort of [`mod@keysort`] — packed usage keys sorted 128 at
//!   a time (by a bitonic network in registers on AVX-512, by a comparison
//!   sort on the eight-lane tiers) and merged lazily: the paper's
//!   two-stage sort, run by the memory unit's free list,
//! * the vector tiers of [`mod@simd`] — sixteen AVX-512 lanes, eight AVX
//!   lanes or eight plain-Rust ones (`F32x8`), the widest the CPU has
//!   picked once by [`simd::Tier::detected`], every kernel one generic
//!   body over them.
//!
//! There is **one kernel tier** and one numerics contract: every vector
//! kernel packs *independent outputs* into register lanes and walks `k` in
//! ascending order — one rounded multiply, then one rounded add, never an
//! FMA, nothing re-associated — so it returns the bits of the plain scalar
//! loop it is pinned to ([`Matrix::matvec_into`], [`Matrix::matmul_nt_into`],
//! [`Matrix::row_norms_into`], [`Matrix::matvec_t_into`], [`vector::dot`]),
//! which stay as the oracles the tests compare against. [`Backend`] is a
//! label left over from a second, re-associating tier; it selects nothing
//! (see [`mod@backend`]).
//!
//! # Example
//!
//! ```
//! use hima_tensor::Matrix;
//!
//! let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]][..]);
//! let v = m.matvec(&[1.0, 1.0]);
//! assert_eq!(v, vec![3.0, 7.0]);
//! ```
//!
//! [`hima-dnc`]: https://docs.rs/hima-dnc
//! [`hima-engine`]: https://docs.rs/hima-engine

pub mod activation;
pub mod backend;
pub mod fixed;
pub mod fused;
pub mod history;
pub mod keysort;
pub mod lane_mask;
pub mod linalg;
pub mod matrix;
pub mod packed;
pub mod simd;
pub mod softmax;
pub mod transcend;
pub mod vector;

pub use backend::Backend;
pub use fixed::QFormat;
pub use lane_mask::LaneMask;
pub use matrix::Matrix;
pub use packed::PackedWeights;
pub use softmax::{softmax, softmax_approx, PlaSoftmax};

/// Numerical tolerance used across the workspace when comparing floats
/// produced by mathematically equivalent but differently ordered
/// computations.
pub const EPSILON: f32 = 1e-5;

/// Asserts that two slices are element-wise close within `tol`.
///
/// # Panics
///
/// Panics with a descriptive message if lengths differ or any element pair
/// differs by more than `tol`.
pub fn assert_close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(a.len(), b.len(), "length mismatch: {} vs {}", a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() <= tol,
            "element {i} differs: {x} vs {y} (tol {tol})"
        );
    }
}

/// Returns `true` when every element pair of `a` and `b` is within `tol`.
pub fn all_close(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_close_detects_mismatch() {
        assert!(all_close(&[1.0, 2.0], &[1.0, 2.0 + 1e-7], 1e-5));
        assert!(!all_close(&[1.0], &[1.1], 1e-5));
        assert!(!all_close(&[1.0], &[1.0, 2.0], 1e-5));
    }

    #[test]
    #[should_panic(expected = "element 1 differs")]
    fn assert_close_panics_on_mismatch() {
        assert_close(&[1.0, 2.0], &[1.0, 3.0], 1e-5);
    }
}
