//! Kernel backend selection: bit-exact scalar reference vs. blocked SIMD.
//!
//! [`Backend`] is the execution-tier axis of the engine: every hot kernel of
//! the DNC dataflow goes through one dispatching method here, and the
//! reduction kernels (`matmul_nt[_masked]_into`, `matvec_into`,
//! `row_norms_into`, `dot`) exist in two implementations behind it;
//! `matvec_t_into` and the softmaxes run the scalar kernel on both tiers
//! (their blocked bodies benched under the 1.2× a second implementation
//! has to earn).
//!
//! * [`Backend::Scalar`] — the kernels on [`Matrix`] and
//!   [`mod@crate::softmax`]. This tier is the **bit-exact reference**:
//!   all bit-equality conformance suites (batched ≡ solo, masked ≡
//!   unmasked, `_into` ≡ allocating) are stated against it. Its contract
//!   is bit-identity with the `k`-ordered reference (one rounded
//!   multiply then one rounded add per `k`, ascending — what
//!   [`Matrix::matvec`] computes), not "no SIMD": `matmul_nt_into` and
//!   `matmul_nt_masked_into` run the transposing row-dot kernel of
//!   [`mod@crate::fused`] — eight rows of the right factor transposed in
//!   registers so vector lanes hold eight independent output sums, the
//!   right factor walked once per four live rows of `lhs` (batch lanes,
//!   or the read heads of the memory unit) — which returns the bits of
//!   the row kernels on [`Matrix`], kept as the reference it is tested
//!   against.
//! * [`Backend::Blocked`] — cache-blocked loops over [`F32x8`] lanes with
//!   multiple independent accumulators. Reductions (dot products, row
//!   norms, softmax normalization) **re-associate** floating-point sums, so
//!   this tier is *not* bit-identical to scalar; it is pinned to the
//!   reference by a tolerance contract instead: each reduction over `n`
//!   terms differs from the scalar result by at most O(`n·ε`) relative to
//!   the sum of absolute summands (property-tested in this crate, and
//!   end-to-end in the workspace `backend_conformance` suite). Kernels
//!   without reductions (`matvec_t_into`'s column-wise accumulation, the
//!   linkage-style element-wise updates) and the softmaxes are the scalar
//!   kernels and stay bit-identical even on this tier.
//!
//! Both tiers are allocation-free on the `_into` paths, so either can sit
//! under the zero-allocation steady-state stepping contract.

use crate::lane_mask::LaneMask;
use crate::matrix::Matrix;
use crate::simd::F32x8;
use serde::{Deserialize, Serialize};

/// Which kernel implementation tier executes the hot numeric kernels.
///
/// Serializes with [`Backend::Scalar`] as the default, so engine specs
/// written before this axis existed deserialize to the bit-exact tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Backend {
    /// The bit-exact reference tier: every kernel keeps the reference's
    /// per-element operation order (see the [module docs](self)).
    #[default]
    Scalar,
    /// Cache-blocked, 8-lane vectorized kernels with unrolled independent
    /// accumulators — faster, equal to scalar within re-association
    /// tolerance on reduction kernels.
    Blocked,
}

impl Backend {
    /// Short label used in spec labels and bench output.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Blocked => "blocked",
        }
    }

    /// Dot product `a · b` on this tier.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Backend::Scalar => crate::vector::dot(a, b),
            Backend::Blocked => {
                assert_eq!(a.len(), b.len(), "dot length mismatch");
                dot_blocked(a, b)
            }
        }
    }

    /// Matrix-vector product `m · v` into `out` on this tier.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != m.cols()` or `out.len() != m.rows()`.
    pub fn matvec_into(&self, m: &Matrix, v: &[f32], out: &mut [f32]) {
        match self {
            Backend::Scalar => m.matvec_into(v, out),
            Backend::Blocked => {
                assert_eq!(v.len(), m.cols(), "matvec shape mismatch");
                assert_eq!(out.len(), m.rows(), "matvec output length mismatch");
                // `out[i] = m.row(i) · v` is one output row of `v · mᵀ`.
                nt_row_blocked(v, m, out);
            }
        }
    }

    /// Transposed matrix-vector product `mᵀ · v` into `out`: one kernel
    /// ([`Matrix::matvec_t_into`]) on both tiers. A blocked body used to
    /// widen the `j` loop by hand; it benched at 0.96× of the scalar
    /// loop, which the compiler vectorizes itself, and is gone.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != m.rows()` or `out.len() != m.cols()`.
    pub fn matvec_t_into(&self, m: &Matrix, v: &[f32], out: &mut [f32]) {
        m.matvec_t_into(v, out);
    }

    /// Batched projection `lhs · otherᵀ` into `out` on this tier.
    ///
    /// On [`Backend::Scalar`] the transposing row-dot kernel
    /// ([`mod@crate::fused`]) computes it, bit-identical to
    /// [`Matrix::matmul_nt_into`].
    ///
    /// # Panics
    ///
    /// Panics if `lhs.cols() != other.cols()` or `out` is not
    /// `lhs.rows() × other.rows()`.
    pub fn matmul_nt_into(&self, lhs: &Matrix, other: &Matrix, out: &mut Matrix) {
        match self {
            Backend::Scalar => crate::fused::matmul_nt_into(lhs, other, None, out),
            Backend::Blocked => {
                lhs.assert_nt_shapes(other, out);
                for i in 0..lhs.rows() {
                    nt_row_blocked(lhs.row(i), other, out.row_mut(i));
                }
            }
        }
    }

    /// Masked batched projection: row `i` of `out` is computed iff
    /// `mask.is_active(i)`, inactive rows are zeroed — the ragged-batch
    /// contract of [`Matrix::matmul_nt_masked_into`], on this tier.
    ///
    /// On [`Backend::Scalar`] the transposing row-dot kernel
    /// ([`mod@crate::fused`]) computes it, bit-identical to
    /// [`Matrix::matmul_nt_masked_into`].
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or if `mask.lanes() != lhs.rows()`.
    pub fn matmul_nt_masked_into(
        &self,
        lhs: &Matrix,
        other: &Matrix,
        mask: &LaneMask,
        out: &mut Matrix,
    ) {
        match self {
            Backend::Scalar => crate::fused::matmul_nt_into(lhs, other, Some(mask), out),
            Backend::Blocked => {
                lhs.assert_nt_shapes(other, out);
                assert_eq!(mask.lanes(), lhs.rows(), "lane mask size mismatch");
                for i in 0..lhs.rows() {
                    let dst = out.row_mut(i);
                    if mask.is_active(i) {
                        nt_row_blocked(lhs.row(i), other, dst);
                    } else {
                        dst.fill(0.0);
                    }
                }
            }
        }
    }

    /// Per-row L2 norms of `m` into `out` on this tier.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != m.rows()`.
    pub fn row_norms_into(&self, m: &Matrix, out: &mut [f32]) {
        match self {
            Backend::Scalar => m.row_norms_into(out),
            Backend::Blocked => {
                assert_eq!(out.len(), m.rows(), "row_norms output length mismatch");
                for (i, o) in out.iter_mut().enumerate() {
                    let row = m.row(i);
                    *o = dot_blocked(row, row).sqrt();
                }
            }
        }
    }

    /// In-place stabilized softmax: one kernel
    /// ([`crate::softmax::softmax_inplace`]) on both tiers. The blocked
    /// body (vectorized max scan, reciprocal-multiply normalization)
    /// benched at 1.08× — the exponentials dominate — short of the 1.2×
    /// a second numerics contract has to earn, and is gone.
    pub fn softmax_inplace(&self, xs: &mut [f32]) {
        crate::softmax::softmax_inplace(xs);
    }

    /// Masked row-block softmax: active rows normalized, inactive rows
    /// untouched — [`crate::softmax::softmax_rows_masked`] on both tiers.
    ///
    /// # Panics
    ///
    /// Panics if `mask.lanes() != m.rows()`.
    pub fn softmax_rows_masked(&self, m: &mut Matrix, mask: &LaneMask) {
        crate::softmax::softmax_rows_masked(m, mask);
    }
}

/// Blocked dot product: four [`F32x8`] accumulators over 32-element
/// chunks (32 independent add chains), an 8-wide cleanup loop, pairwise
/// accumulator merge, then a scalar tail.
#[inline]
fn dot_blocked(a: &[f32], b: &[f32]) -> f32 {
    let mut acc0 = F32x8::ZERO;
    let mut acc1 = F32x8::ZERO;
    let mut acc2 = F32x8::ZERO;
    let mut acc3 = F32x8::ZERO;
    let mut ac = a.chunks_exact(32);
    let mut bc = b.chunks_exact(32);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        acc0 = F32x8::load(&ca[0..8]).mul_add(F32x8::load(&cb[0..8]), acc0);
        acc1 = F32x8::load(&ca[8..16]).mul_add(F32x8::load(&cb[8..16]), acc1);
        acc2 = F32x8::load(&ca[16..24]).mul_add(F32x8::load(&cb[16..24]), acc2);
        acc3 = F32x8::load(&ca[24..32]).mul_add(F32x8::load(&cb[24..32]), acc3);
    }
    let ra = ac.remainder();
    let rb = bc.remainder();
    let mut ra8 = ra.chunks_exact(8);
    let mut rb8 = rb.chunks_exact(8);
    for (ca, cb) in (&mut ra8).zip(&mut rb8) {
        acc0 = F32x8::load(ca).mul_add(F32x8::load(cb), acc0);
    }
    let mut sum = (acc0.add(acc1)).add(acc2.add(acc3)).horizontal_sum();
    for (x, y) in ra8.remainder().iter().zip(rb8.remainder()) {
        sum += x * y;
    }
    sum
}

/// One output row of `lhs · otherᵀ`, blocked: four output columns per
/// pass (so `lhs` chunks load once per four dot products), each column
/// reduced through its own [`F32x8`] accumulator.
fn nt_row_blocked(lhs: &[f32], other: &Matrix, dst: &mut [f32]) {
    let n = other.rows();
    let k = lhs.len();
    let k8 = k - k % 8;
    let mut j = 0;
    while j + 4 <= n {
        let r0 = other.row(j);
        let r1 = other.row(j + 1);
        let r2 = other.row(j + 2);
        let r3 = other.row(j + 3);
        let mut a0 = F32x8::ZERO;
        let mut a1 = F32x8::ZERO;
        let mut a2 = F32x8::ZERO;
        let mut a3 = F32x8::ZERO;
        let mut kk = 0;
        while kk < k8 {
            let lv = F32x8::load(&lhs[kk..kk + 8]);
            a0 = lv.mul_add(F32x8::load(&r0[kk..kk + 8]), a0);
            a1 = lv.mul_add(F32x8::load(&r1[kk..kk + 8]), a1);
            a2 = lv.mul_add(F32x8::load(&r2[kk..kk + 8]), a2);
            a3 = lv.mul_add(F32x8::load(&r3[kk..kk + 8]), a3);
            kk += 8;
        }
        let mut s0 = a0.horizontal_sum();
        let mut s1 = a1.horizontal_sum();
        let mut s2 = a2.horizontal_sum();
        let mut s3 = a3.horizontal_sum();
        for kk in k8..k {
            let l = lhs[kk];
            s0 += l * r0[kk];
            s1 += l * r1[kk];
            s2 += l * r2[kk];
            s3 += l * r3[kk];
        }
        dst[j] = s0;
        dst[j + 1] = s1;
        dst[j + 2] = s2;
        dst[j + 3] = s3;
        j += 4;
    }
    for (d, jr) in dst[j..].iter_mut().zip(j..n) {
        *d = dot_blocked(lhs, other.row(jr));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::softmax::{softmax_inplace, softmax_rows_masked};

    /// Re-association tolerance for reduction kernels, stated relative to
    /// the sum of absolute summands (`1` floors the scale for tiny sums).
    fn assert_reduction_close(got: f32, want: f32, abs_scale: f32) {
        let tol = 1e-4 * (1.0 + abs_scale);
        assert!(
            (got - want).abs() <= tol,
            "blocked {got} vs scalar {want} exceeds re-association tol {tol}"
        );
    }

    fn mat(rows: usize, cols: usize, phase: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| ((i * cols + j) as f32 * 0.37 + phase).sin())
    }

    fn vec_of(n: usize, phase: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.61 + phase).cos()).collect()
    }

    #[test]
    fn labels_and_default() {
        assert_eq!(Backend::default(), Backend::Scalar);
        assert_eq!(Backend::Scalar.label(), "scalar");
        assert_eq!(Backend::Blocked.label(), "blocked");
    }

    #[test]
    fn blocked_dot_matches_scalar_within_tolerance() {
        // Lengths straddling every code path: scalar tail only, 8-chunk
        // cleanup, full 32-chunks, and combinations.
        for n in [0, 1, 5, 8, 9, 16, 31, 32, 33, 40, 64, 100, 128, 257] {
            let a = vec_of(n, 0.1);
            let b = vec_of(n, 1.7);
            let want = crate::vector::dot(&a, &b);
            let got = Backend::Blocked.dot(&a, &b);
            let scale: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            assert_reduction_close(got, want, scale);
        }
    }

    #[test]
    fn blocked_matvec_matches_scalar_within_tolerance() {
        // Engine shapes (linkage 128×128, content 128×16) plus
        // non-multiple-of-block widths (17, 63).
        for (r, c) in [(128, 128), (128, 16), (4, 17), (7, 63), (1, 9), (9, 1)] {
            let m = mat(r, c, 0.3);
            let v = vec_of(c, 2.2);
            let mut want = vec![0.0; r];
            let mut got = vec![f32::NAN; r];
            Backend::Scalar.matvec_into(&m, &v, &mut want);
            Backend::Blocked.matvec_into(&m, &v, &mut got);
            for i in 0..r {
                assert_reduction_close(got[i], want[i], c as f32);
            }
        }
    }

    #[test]
    fn blocked_matvec_t_is_bit_identical() {
        // One kernel behind both arms.
        for (r, c) in [(128, 16), (17, 63), (1, 8), (8, 1), (5, 19)] {
            let m = mat(r, c, 0.9);
            let mut v = vec_of(r, 0.4);
            v[0] = 0.0; // exercise the sparsity skip
            let mut want = vec![f32::NAN; c];
            let mut got = vec![f32::NAN; c];
            Backend::Scalar.matvec_t_into(&m, &v, &mut want);
            Backend::Blocked.matvec_t_into(&m, &v, &mut got);
            assert_eq!(got, want, "{r}x{c}");
        }
    }

    #[test]
    fn blocked_matmul_nt_matches_scalar_within_tolerance() {
        for (b, n, k) in [(32, 256, 112), (3, 5, 17), (1, 1, 63), (8, 93, 80)] {
            let lhs = mat(b, k, 0.2);
            let other = mat(n, k, 1.1);
            let mut want = Matrix::zeros(b, n);
            let mut got = Matrix::filled(b, n, f32::NAN);
            Backend::Scalar.matmul_nt_into(&lhs, &other, &mut want);
            Backend::Blocked.matmul_nt_into(&lhs, &other, &mut got);
            for i in 0..b {
                for j in 0..n {
                    assert_reduction_close(got[(i, j)], want[(i, j)], k as f32);
                }
            }
        }
    }

    #[test]
    fn blocked_masked_matmul_nt_zeroes_inactive_rows() {
        let lhs = mat(6, 40, 0.5);
        let other = mat(10, 40, 1.9);
        let mask = LaneMask::from(vec![true, false, true, true, false, true]);
        let mut out = Matrix::filled(6, 10, f32::NAN); // stale scratch
        Backend::Blocked.matmul_nt_masked_into(&lhs, &other, &mask, &mut out);
        let mut full = Matrix::zeros(6, 10);
        Backend::Blocked.matmul_nt_into(&lhs, &other, &mut full);
        for i in 0..6 {
            if mask.is_active(i) {
                assert_eq!(out.row(i), full.row(i), "active row {i}");
            } else {
                assert!(out.row(i).iter().all(|&x| x == 0.0), "inactive row {i}");
            }
        }
    }

    #[test]
    fn blocked_masked_matmul_nt_handles_empty_mask() {
        let lhs = mat(4, 12, 0.8);
        let other = mat(6, 12, 0.1);
        let mask = LaneMask::from(vec![false; 4]);
        let mut out = Matrix::filled(4, 6, f32::NAN);
        Backend::Blocked.matmul_nt_masked_into(&lhs, &other, &mask, &mut out);
        assert!(out.as_slice().iter().all(|&x| x == 0.0), "all-inactive mask zeroes out");
    }

    #[test]
    fn blocked_row_norms_match_scalar_within_tolerance() {
        for (r, c) in [(128, 16), (128, 17), (3, 63), (1, 1), (5, 8)] {
            let m = mat(r, c, 1.4);
            let mut want = vec![f32::NAN; r];
            let mut got = vec![f32::NAN; r];
            Backend::Scalar.row_norms_into(&m, &mut want);
            Backend::Blocked.row_norms_into(&m, &mut got);
            for i in 0..r {
                assert_reduction_close(got[i], want[i], c as f32);
            }
        }
    }

    #[test]
    fn blocked_softmax_matches_scalar_within_tolerance() {
        for n in [1, 2, 7, 8, 9, 16, 128, 129] {
            let mut want = vec_of(n, 0.6);
            let mut got = want.clone();
            softmax_inplace(&mut want);
            Backend::Blocked.softmax_inplace(&mut got);
            // One kernel behind both arms.
            assert_eq!(got, want, "n={n}");
        }
        Backend::Blocked.softmax_inplace(&mut []); // empty is a no-op
    }

    #[test]
    fn blocked_masked_softmax_skips_inactive_rows() {
        let src = mat(4, 11, 0.2);
        let mask = LaneMask::from(vec![true, false, false, true]);
        let mut got = src.clone();
        Backend::Blocked.softmax_rows_masked(&mut got, &mask);
        let mut want = src.clone();
        softmax_rows_masked(&mut want, &mask);
        for i in 0..4 {
            if mask.is_active(i) {
                for (g, w) in got.row(i).iter().zip(want.row(i)) {
                    assert!((g - w).abs() <= 1e-6, "row {i}");
                }
            } else {
                assert_eq!(got.row(i), src.row(i), "inactive row {i} untouched");
            }
        }
    }

    #[test]
    fn single_row_and_single_column_edges() {
        // 1×1 through 1×n and n×1: the j-remainder and k-tail paths alone.
        for backend in [Backend::Scalar, Backend::Blocked] {
            let m = mat(1, 1, 0.0);
            let mut out = vec![f32::NAN; 1];
            backend.matvec_into(&m, &[2.0], &mut out);
            assert!((out[0] - 2.0 * m[(0, 0)]).abs() < 1e-6, "{}", backend.label());

            let col = mat(9, 1, 0.7);
            let mut out = vec![f32::NAN; 9];
            backend.matvec_into(&col, &[1.5], &mut out);
            for i in 0..9 {
                assert!((out[i] - 1.5 * col[(i, 0)]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn scalar_dispatch_is_the_reference_bitwise() {
        // The Scalar arms must route to the original kernels, not copies.
        let m = mat(5, 7, 0.3);
        let v = vec_of(7, 0.9);
        let mut a = vec![0.0; 5];
        let mut b = vec![0.0; 5];
        Backend::Scalar.matvec_into(&m, &v, &mut a);
        m.matvec_into(&v, &mut b);
        assert_eq!(a, b);
        assert_eq!(Backend::Scalar.dot(&v, &v), crate::vector::dot(&v, &v));
    }

    #[test]
    fn scalar_unmasked_matmul_nt_is_matvec_per_row_bitwise() {
        // One group of the row-dot kernel, or a full group plus a lone
        // row: either way each row is `other.matvec(row)`.
        for (b, n, k) in [(1, 64, 64), (2, 128, 16), (4, 64, 64), (5, 7, 3)] {
            let lhs = mat(b, k, 0.2);
            let other = mat(n, k, 1.1);
            let mut out = Matrix::filled(b, n, f32::NAN);
            Backend::Scalar.matmul_nt_into(&lhs, &other, &mut out);
            for i in 0..b {
                let want: Vec<u32> = other.matvec(lhs.row(i)).iter().map(|x| x.to_bits()).collect();
                let got: Vec<u32> = out.row(i).iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "row {i} of {b}x{k} · {n}x{k}ᵀ");
            }
        }
    }

    #[test]
    #[should_panic(expected = "matvec shape mismatch")]
    fn blocked_matvec_rejects_bad_shapes() {
        let m = Matrix::zeros(2, 3);
        Backend::Blocked.matvec_into(&m, &[1.0, 2.0], &mut [0.0, 0.0]);
    }
}
