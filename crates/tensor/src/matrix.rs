//! Row-major dense `f32` matrix with the operations used by the DNC dataflow.
//!
//! The DNC memory unit (paper Fig. 2) needs a small, fixed set of matrix
//! primitives: transpose, matrix-vector and matrix-matrix products,
//! row-broadcast adds and row normalization. [`Matrix`] implements exactly
//! those, with shape checking on every operation so the functional model
//! fails loudly instead of silently mis-shaping.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f32`.
///
/// # Example
///
/// ```
/// use hima_tensor::Matrix;
///
/// let mut m = Matrix::zeros(2, 3);
/// m[(0, 0)] = 1.0;
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(0, 0)], 1.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer of {} elements cannot form a {rows}x{cols} matrix",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows<R: AsRef<[f32]>>(rows: &[R]) -> Self {
        assert!(!rows.is_empty(), "cannot build a matrix from zero rows");
        let cols = rows[0].as_ref().len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            let r = r.as_ref();
            assert_eq!(r.len(), cols, "ragged rows: {} vs {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of bounds for {} rows", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row {i} out of bounds for {} rows", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Flat row-major view of the underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable row-major view of the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn matvec(&self, v: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out);
        out
    }

    /// Output-buffer form of [`Matrix::matvec`]: writes `self · v` into
    /// `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols` or `out.len() != rows`.
    pub fn matvec_into(&self, v: &[f32], out: &mut [f32]) {
        assert_eq!(v.len(), self.cols, "matvec shape mismatch");
        assert_eq!(out.len(), self.rows, "matvec output length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.row(i).iter().zip(v).map(|(a, b)| a * b).sum();
        }
    }

    /// Transposed matrix-vector product `selfᵀ · v` without materializing the
    /// transpose (this is the memory-read kernel `v_r = Mᵀ w_r`).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != rows`.
    pub fn matvec_t(&self, v: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        self.matvec_t_into(v, &mut out);
        out
    }

    /// Output-buffer form of [`Matrix::matvec_t`]: writes `selfᵀ · v` into
    /// `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != rows` or `out.len() != cols`.
    pub fn matvec_t_into(&self, v: &[f32], out: &mut [f32]) {
        assert_eq!(v.len(), self.rows, "matvec_t shape mismatch");
        assert_eq!(out.len(), self.cols, "matvec_t output length mismatch");
        out.fill(0.0);
        for (i, &w) in v.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            for (o, m) in out.iter_mut().zip(self.row(i)) {
                *o += w * m;
            }
        }
    }

    /// Matrix-matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Batched matrix product against a transposed right factor:
    /// `self · otherᵀ`, where `self` is `B × K` and `other` is `N × K`,
    /// yielding `B × N`.
    ///
    /// This is the batched form of [`Matrix::matvec`]: row `i` of the
    /// result equals `other.matvec(self.row(i))`, computed with the same
    /// per-row accumulation order, so driving `B` lanes through one
    /// `matmul_nt` is bit-identical to `B` separate `matvec` calls. The
    /// batched DNC path leans on this for the controller, interface and
    /// output projections (shared weights, per-lane activations).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        // The fully-active special case of the masked kernel — one loop
        // body, so unmasked and masked products are bit-identical by
        // construction.
        self.matmul_nt_masked(other, &crate::LaneMask::full(self.rows))
    }

    /// Output-buffer form of [`Matrix::matmul_nt`]: writes `self · otherᵀ`
    /// into `out` without allocating. `out` must already be
    /// `self.rows × other.rows` — pre-size it once and reuse it across
    /// steps (the steady-state stepping path).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols` or `out` has the wrong shape.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        self.assert_nt_shapes(other, out);
        for i in 0..self.rows {
            nt_row_into(self.row(i), other, out.row_mut(i));
        }
    }

    /// Shape checks shared by the `matmul_nt*_into` kernels (the row
    /// kernels here and the transposing one in [`mod@crate::fused`]).
    pub(crate) fn assert_nt_shapes(&self, other: &Matrix, out: &Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} vs {}x{}ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "matmul_nt output shape mismatch: {}x{} for a {}x{} product",
            out.rows,
            out.cols,
            self.rows,
            other.rows
        );
    }

    /// Masked form of [`Matrix::matmul_nt`] for ragged batches: row `i`
    /// of the result is computed iff `mask.is_active(i)`; inactive rows
    /// are **skipped** (left zero), not zeroed-and-recomputed — a lane
    /// whose sequence has ended costs nothing in the shared-weight
    /// projection.
    ///
    /// Active rows are bit-identical to [`Matrix::matmul_nt`] (same
    /// per-row accumulation order), so a fully-active mask reproduces
    /// the unmasked product exactly.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols` or `mask.lanes() != self.rows`.
    pub fn matmul_nt_masked(&self, other: &Matrix, mask: &crate::LaneMask) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_nt_masked_into(other, mask, &mut out);
        out
    }

    /// Output-buffer form of [`Matrix::matmul_nt_masked`]: `out` receives
    /// exactly what the allocating form returns — active rows computed,
    /// inactive rows zero — without allocating. `out` must already be
    /// `self.rows × other.rows`.
    ///
    /// The inner loop computes four output columns per pass so `lhs`
    /// stays hot in registers; each column's dot product keeps the exact
    /// `k`-order accumulation of [`Matrix::matvec`], so the kernel stays
    /// bit-compatible with per-lane stepping.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`, `mask.lanes() != self.rows`,
    /// or `out` has the wrong shape.
    pub fn matmul_nt_masked_into(&self, other: &Matrix, mask: &crate::LaneMask, out: &mut Matrix) {
        self.assert_nt_shapes(other, out);
        assert_eq!(mask.lanes(), self.rows, "lane mask size mismatch");
        for i in 0..self.rows {
            let dst = out.row_mut(i);
            if mask.is_active(i) {
                nt_row_into(self.row(i), other, dst);
            } else {
                // Inactive rows are zero, matching the allocating form
                // (stale scratch contents must not leak through).
                dst.fill(0.0);
            }
        }
    }

    /// Row-wise concatenation `[self | other]`: both operands must have
    /// the same row count; the result is `rows × (cols_a + cols_b)`.
    ///
    /// The batched DNC path uses this to form per-lane feature rows such
    /// as `[x_t ; v_r^{t-1}]` without per-lane `Vec` plumbing.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hcat(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows, b.rows, "hcat row mismatch: {} vs {}", a.rows, b.rows);
        let mut out = Matrix::zeros(a.rows, a.cols + b.cols);
        Self::hcat_into(a, b, &mut out);
        out
    }

    /// Output-buffer form of [`Matrix::hcat`]: writes `[a | b]` into
    /// `out` without allocating. `out` must already be
    /// `a.rows × (a.cols + b.cols)`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ or `out` has the wrong shape.
    pub fn hcat_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(a.rows, b.rows, "hcat row mismatch: {} vs {}", a.rows, b.rows);
        assert_eq!(
            out.shape(),
            (a.rows, a.cols + b.cols),
            "hcat output shape mismatch: {}x{} for {}x{}",
            out.rows,
            out.cols,
            a.rows,
            a.cols + b.cols
        );
        for i in 0..a.rows {
            let dst = out.row_mut(i);
            dst[..a.cols].copy_from_slice(a.row(i));
            dst[a.cols..].copy_from_slice(b.row(i));
        }
    }

    /// Adds `bias` to the rows of active lanes in place (row-broadcast
    /// add, the batched bias kernel), leaving inactive rows untouched.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols` or `mask.lanes() != rows`.
    pub fn add_row_inplace_masked(&mut self, bias: &[f32], mask: &crate::LaneMask) {
        assert_eq!(bias.len(), self.cols, "row-broadcast shape mismatch");
        assert_eq!(mask.lanes(), self.rows, "lane mask size mismatch");
        for i in 0..self.rows {
            if !mask.is_active(i) {
                continue;
            }
            for (x, b) in self.row_mut(i).iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// L2 norm of each row — the `‖M[i,·]‖` normalization step of
    /// content-based addressing.
    pub fn row_norms(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.rows];
        self.row_norms_into(&mut out);
        out
    }

    /// Output-buffer form of [`Matrix::row_norms`]: writes the per-row L2
    /// norms into `out` without allocating — the once-per-step norm cache
    /// refill of content addressing.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows`.
    pub fn row_norms_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.rows, "row_norms output length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.row(i).iter().map(|x| x * x).sum::<f32>().sqrt();
        }
    }

    /// Maximum absolute element (∞-norm of the flattened matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, x| m.max(x.abs()))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }
}

/// One output row of `lhs · otherᵀ`: `dst[j] = lhs · other.row(j)`.
///
/// Four output columns per pass so `lhs` stays hot in registers; each
/// column's dot product keeps the exact `k`-order accumulation of
/// [`Matrix::matvec`], so the kernel stays bit-compatible with per-lane
/// stepping.
pub(crate) fn nt_row_into(lhs: &[f32], other: &Matrix, dst: &mut [f32]) {
    nt_cols_into(lhs, other, 0, dst);
}

/// Columns `j..` of [`nt_row_into`]'s output row (`j` a multiple of four,
/// so the four-column passes fall where the whole row's do).
pub(crate) fn nt_cols_into(lhs: &[f32], other: &Matrix, mut j: usize, dst: &mut [f32]) {
    let n = other.rows;
    while j + 4 <= n {
        let r0 = other.row(j);
        let r1 = other.row(j + 1);
        let r2 = other.row(j + 2);
        let r3 = other.row(j + 3);
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for (k, &l) in lhs.iter().enumerate() {
            // Per-element k-order accumulation identical to `matvec`;
            // only the j-traversal is widened.
            a0 += l * r0[k];
            a1 += l * r1[k];
            a2 += l * r2[k];
            a3 += l * r3[k];
        }
        dst[j] = a0;
        dst[j + 1] = a1;
        dst[j + 2] = a2;
        dst[j + 3] = a3;
        j += 4;
    }
    for (d, jr) in dst[j..].iter_mut().zip(j..n) {
        *d = lhs.iter().zip(other.row(jr)).map(|(a, b)| a * b).sum();
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..], &[5.0, 6.0][..]]);
        assert_eq!(m.matvec(&[1.0, -1.0]), vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn matvec_t_equals_transpose_matvec() {
        let m = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f32 * 0.25 - 1.0);
        let v = [0.5, -1.0, 2.0, 0.0, 1.0];
        assert_close(&m.matvec_t(&v), &m.transpose().matvec(&v), 1e-6);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = Matrix::from_fn(4, 4, |i, j| (i + 2 * j) as f32);
        let i4 = Matrix::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.0 });
        assert_eq!(m.matmul(&i4), m);
        assert_eq!(i4.matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0][..], &[7.0, 8.0][..]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn outer_product_shape_and_values() {
        // `a ⊗ b` is the product of an `n × 1` and a `1 × m` matrix.
        let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        let m = a.matmul(&Matrix::from_vec(1, 3, vec![3.0, 4.0, 5.0]));
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 10.0);
    }

    #[test]
    fn row_norms_unit_rows() {
        let m = Matrix::from_rows(&[&[3.0, 4.0][..], &[0.0, 0.0][..]]);
        assert_close(&m.row_norms(), &[5.0, 0.0], 1e-6);
    }

    #[test]
    #[should_panic(expected = "matvec shape mismatch")]
    fn matvec_rejects_bad_shape() {
        Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn from_rows_rejects_ragged() {
        Matrix::from_rows(&[&[1.0, 2.0][..], &[1.0][..]]);
    }

    #[test]
    fn masked_matmul_nt_skips_inactive_rows_and_matches_active_ones() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f32 * 0.5 - 1.0);
        let w = Matrix::from_fn(5, 3, |i, j| ((i + 2 * j) as f32).sin());
        let full = a.matmul_nt(&w);
        let mask = crate::LaneMask::from(vec![true, false, true, false]);
        let masked = a.matmul_nt_masked(&w, &mask);
        for i in 0..4 {
            if mask.is_active(i) {
                assert_eq!(masked.row(i), full.row(i), "active row {i} must be bit-equal");
            } else {
                assert!(masked.row(i).iter().all(|&x| x == 0.0), "inactive row {i} skipped");
            }
        }
        // A full mask reproduces the unmasked product exactly.
        assert_eq!(a.matmul_nt_masked(&w, &crate::LaneMask::full(4)), full);
    }

    #[test]
    fn masked_add_row_inplace_leaves_inactive_rows() {
        let mut m = Matrix::filled(3, 2, 1.0);
        m.add_row_inplace_masked(&[0.5, -0.5], &crate::LaneMask::from(vec![true, false, true]));
        assert_eq!(m.row(0), &[1.5, 0.5]);
        assert_eq!(m.row(1), &[1.0, 1.0]);
        assert_eq!(m.row(2), &[1.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "lane mask size mismatch")]
    fn masked_matmul_nt_rejects_wrong_mask_length() {
        Matrix::zeros(2, 3).matmul_nt_masked(&Matrix::zeros(4, 3), &crate::LaneMask::full(3));
    }

    #[test]
    fn into_kernels_are_bit_identical_to_allocating_forms() {
        // The `_into` variants are the steady-state hot path; the
        // allocating forms wrap them, so equality here pins both the
        // wrappers and stale-scratch clearing.
        let a = Matrix::from_fn(5, 7, |i, j| ((i * 7 + j) as f32 * 0.23).sin());
        let w = Matrix::from_fn(11, 7, |i, j| ((i + 3 * j) as f32 * 0.31).cos());
        let mask = crate::LaneMask::from(vec![true, false, true, true, false]);

        let mut out = Matrix::filled(5, 11, f32::NAN); // stale scratch
        a.matmul_nt_masked_into(&w, &mask, &mut out);
        assert_eq!(out, a.matmul_nt_masked(&w, &mask));

        let mut out = Matrix::filled(5, 11, f32::NAN);
        a.matmul_nt_into(&w, &mut out);
        assert_eq!(out, a.matmul_nt(&w));

        let b = Matrix::from_fn(5, 3, |i, j| (i + j) as f32);
        let mut cat = Matrix::filled(5, 10, f32::NAN);
        Matrix::hcat_into(&a, &b, &mut cat);
        assert_eq!(cat, Matrix::hcat(&a, &b));

        let v7: Vec<f32> = (0..7).map(|i| (i as f32 * 0.7).sin()).collect();
        let mut mv = vec![f32::NAN; 5];
        a.matvec_into(&v7, &mut mv);
        assert_eq!(mv, a.matvec(&v7));

        let v5: Vec<f32> = (0..5).map(|i| (i as f32 * 0.9).cos()).collect();
        let mut mvt = vec![f32::NAN; 7];
        a.matvec_t_into(&v5, &mut mvt);
        assert_eq!(mvt, a.matvec_t(&v5));

        let mut norms = vec![f32::NAN; 5];
        a.row_norms_into(&mut norms);
        assert_eq!(norms, a.row_norms());
    }

    #[test]
    fn unrolled_matmul_nt_handles_non_multiple_of_four_widths() {
        // Exercise the 4-wide unroll remainder: output widths 1..=9
        // against the matvec reference, element for element.
        for n in 1..=9usize {
            let a = Matrix::from_fn(3, 5, |i, j| ((i * 5 + j) as f32 * 0.17).sin());
            let w = Matrix::from_fn(n, 5, |i, j| ((i * 2 + j) as f32 * 0.29).cos());
            let got = a.matmul_nt(&w);
            for i in 0..3 {
                assert_eq!(got.row(i), &w.matvec(a.row(i))[..], "rows={n} lane={i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "matmul_nt output shape mismatch")]
    fn matmul_nt_into_rejects_wrong_output_shape() {
        let a = Matrix::zeros(2, 3);
        let w = Matrix::zeros(4, 3);
        a.matmul_nt_masked_into(&w, &crate::LaneMask::full(2), &mut Matrix::zeros(2, 3));
    }

    #[test]
    fn col_extracts_column() {
        // Column `j` is row `j` of the transpose.
        let m = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        assert_eq!(m.transpose().row(1), &[2.0, 4.0]);
    }

    #[test]
    fn max_abs_and_sum() {
        let m = Matrix::from_rows(&[&[-3.0, 1.0][..], &[2.0, -0.5][..]]);
        assert_eq!(m.max_abs(), 3.0);
        assert_eq!(m.sum(), -0.5);
    }
}
