//! [`Backend`]: an inert label — the frozen benchmark's compile surface
//! and nothing else.
//!
//! The crate has **one** kernel tier (see the [crate docs](crate)), so
//! `Blocked` means `Scalar`: either label builds the same engine, pinned
//! `to_bits` by the workspace `backend_conformance` suite. The type
//! survives because `e2e_bench/` — frozen outside `[benchmark]` PRs —
//! names both variants, stores one through `with_backend`/`.backend()`,
//! reads `spec.backend` and times the five methods below, and because the
//! wire spec's `blocked` bit, the `HLSS` config byte and the store
//! manifests round-trip the label. Those codecs alone branch on it; each
//! method forwards to the single kernel, which new code calls directly.
//! Type, setters and wire bit go together, with the next benchmark PR.

use crate::lane_mask::LaneMask;
use crate::matrix::Matrix;

/// A label carried through specs, snapshots and the wire; it selects
/// nothing (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The default label.
    #[default]
    Scalar,
    /// Formerly a second kernel tier; now `Scalar`'s kernels, bit for bit.
    Blocked,
}

impl Backend {
    /// [`Matrix::matmul_nt_masked_into`]'s contract and bits, through the
    /// transposing row-dot kernel ([`mod@crate::fused`]).
    pub fn matmul_nt_masked_into(
        &self,
        lhs: &Matrix,
        other: &Matrix,
        mask: &LaneMask,
        out: &mut Matrix,
    ) {
        crate::fused::matmul_nt_into(lhs, other, Some(mask), out);
    }

    /// `m · v` as a one-row product of the same kernel:
    /// [`Matrix::matvec_into`]'s bits, but for the sign of a zero sum (the
    /// kernel's sums start from `+0.0`, see [`mod@crate::fused`]).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != m.cols()` or `out.len() != m.rows()`.
    pub fn matvec_into(&self, m: &Matrix, v: &[f32], out: &mut [f32]) {
        assert_eq!(v.len(), m.cols(), "matvec shape mismatch");
        // The kernel infers its row count; a zero-width `m` would let any
        // multiple of `m.rows()` through.
        assert_eq!(out.len(), m.rows(), "matvec output length mismatch");
        crate::fused::row_dots_into(v, m, out, None);
    }

    /// [`Matrix::matvec_t_into`].
    pub fn matvec_t_into(&self, m: &Matrix, v: &[f32], out: &mut [f32]) {
        m.matvec_t_into(v, out);
    }

    /// [`Matrix::row_norms_into`].
    pub fn row_norms_into(&self, m: &Matrix, out: &mut [f32]) {
        m.row_norms_into(out);
    }

    /// [`crate::softmax::softmax_inplace`].
    pub fn softmax_inplace(&self, xs: &mut [f32]) {
        crate::softmax::softmax_inplace(xs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_default() {
        assert_eq!(Backend::default(), Backend::Scalar);
        assert_ne!(Backend::Scalar, Backend::Blocked, "two labels, each stored as given");
    }

    #[test]
    fn scalar_dispatch_is_the_reference_bitwise() {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mat = |r, c: usize, p: f32| Matrix::from_fn(r, c, |i, j| ((i * c + j) as f32 + p).sin());
        for backend in [Backend::Scalar, Backend::Blocked] {
            for (r, c) in [(128, 128), (128, 16), (4, 17), (7, 63), (1, 1), (1, 9), (9, 1)] {
                let (m, v, w) = (mat(r, c, 0.3), mat(1, c, 2.2), mat(1, r, 0.4));
                let (mut rows, mut cols) = (vec![f32::NAN; r], vec![f32::NAN; c]);
                backend.matvec_into(&m, v.row(0), &mut rows);
                assert_eq!(bits(&rows), bits(&m.matvec(v.row(0))), "{r}x{c}");
                backend.row_norms_into(&m, &mut rows);
                assert_eq!(bits(&rows), bits(&m.row_norms()), "{r}x{c}");
                backend.matvec_t_into(&m, w.row(0), &mut cols);
                assert_eq!(bits(&cols), bits(&m.matvec_t(w.row(0))), "{r}x{c}");
                backend.softmax_inplace(&mut cols);
                assert_eq!(bits(&cols), bits(&crate::softmax::softmax(&m.matvec_t(w.row(0)))));
                let (lhs, mask) = (mat(3, c, 0.5), LaneMask::from(vec![true, false, true]));
                let (mut out, mut want) = (Matrix::filled(3, r, f32::NAN), Matrix::zeros(3, r));
                backend.matmul_nt_masked_into(&lhs, &m, &mask, &mut out);
                lhs.matmul_nt_masked_into(&m, &mask, &mut want);
                assert_eq!(bits(out.as_slice()), bits(want.as_slice()), "{r}x{c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "matvec shape mismatch")]
    fn blocked_matvec_rejects_bad_shapes() {
        Backend::Blocked.matvec_into(&Matrix::zeros(2, 3), &[1.0, 2.0], &mut [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "matvec output length mismatch")]
    fn zero_width_matvec_rejects_a_whole_multiple_of_the_rows() {
        Backend::Blocked.matvec_into(&Matrix::zeros(2, 0), &[], &mut [0.0; 4]);
    }
}
