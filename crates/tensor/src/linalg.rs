//! Dense linear solvers: Gaussian elimination and ridge regression.
//!
//! Used by the trainable pieces of the reproduction — the DNC-D read-merge
//! calibration and the reservoir-style trained readout — which both reduce
//! to small regularized least-squares problems.

use crate::matrix::Matrix;

/// Solves `A · X = B` for `X` by Gaussian elimination with partial
/// pivoting, where `A` is square and `B` may have multiple columns.
///
/// Returns `None` when `A` is (numerically) singular.
///
/// # Panics
///
/// Panics if `A` is not square or the row counts differ.
fn solve(a: &Matrix, b: &Matrix) -> Option<Matrix> {
    assert_eq!(a.rows(), a.cols(), "solve needs a square system");
    assert_eq!(a.rows(), b.rows(), "A and B row counts differ");
    let n = a.rows();
    let m = b.cols();

    // Augmented matrix in f64 for stability.
    let mut aug: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let mut row: Vec<f64> = a.row(i).iter().map(|&x| x as f64).collect();
            row.extend(b.row(i).iter().map(|&x| x as f64));
            row
        })
        .collect();

    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| aug[i][col].abs().total_cmp(&aug[j][col].abs()))?;
        if aug[pivot][col].abs() < 1e-12 {
            return None;
        }
        aug.swap(col, pivot);
        let pivot_val = aug[col][col];
        for row in 0..n {
            if row == col {
                continue;
            }
            let factor = aug[row][col] / pivot_val;
            if factor == 0.0 {
                continue;
            }
            // Rows `row` and `col` alias inside `aug`, so the update reads
            // through indices rather than a borrowed slice pair.
            #[allow(clippy::needless_range_loop)]
            for k in col..n + m {
                aug[row][k] -= factor * aug[col][k];
            }
        }
    }

    let mut x = Matrix::zeros(n, m);
    for i in 0..n {
        let d = aug[i][i];
        for j in 0..m {
            x[(i, j)] = (aug[i][n + j] / d) as f32;
        }
    }
    Some(x)
}

/// Ridge regression: finds `W` (shape `targets_cols × features_cols`)
/// minimizing `Σ ‖W xᵢ − yᵢ‖² + λ‖W‖²` over the rows of `features` /
/// `targets`.
///
/// Returns `None` if the regularized normal equations are singular (only
/// possible for `lambda <= 0`).
///
/// # Panics
///
/// Panics if the row counts differ or `features` is empty.
pub fn ridge_regression(features: &Matrix, targets: &Matrix, lambda: f32) -> Option<Matrix> {
    assert_eq!(features.rows(), targets.rows(), "one target row per feature row");
    assert!(features.rows() > 0, "need at least one sample");
    let d = features.cols();

    // Normal equations: (XᵀX + λI) Wᵀ = Xᵀ Y.
    let xt = features.transpose();
    let mut xtx = xt.matmul(features);
    for i in 0..d {
        xtx[(i, i)] += lambda;
    }
    let xty = xt.matmul(targets);
    let wt = solve(&xtx, &xty)?;
    Some(wt.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn solve_identity_returns_rhs() {
        let i3 = Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        let b = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f32);
        let x = solve(&i3, &b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solve_known_system() {
        // x + 2y = 5; 3x - y = 1  ->  x = 1, y = 2.
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, -1.0][..]]);
        let b = Matrix::from_rows(&[&[5.0][..], &[1.0][..]]);
        let x = solve(&a, &b).unwrap();
        assert_close(x.as_slice(), &[1.0, 2.0], 1e-5);
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 4.0][..]]);
        let b = Matrix::from_rows(&[&[1.0][..], &[2.0][..]]);
        assert!(solve(&a, &b).is_none());
    }

    #[test]
    fn solve_round_trips_with_matmul() {
        let a = Matrix::from_fn(4, 4, |i, j| ((i * 7 + j * 3) % 11) as f32 + if i == j { 5.0 } else { 0.0 });
        let x_true = Matrix::from_fn(4, 2, |i, j| (i + j) as f32 * 0.5 - 1.0);
        let b = a.matmul(&x_true);
        let x = solve(&a, &b).unwrap();
        assert_close(x.as_slice(), x_true.as_slice(), 1e-4);
    }

    #[test]
    fn ridge_recovers_exact_linear_map() {
        // y = M x with more samples than dimensions and tiny lambda.
        let m_true = Matrix::from_rows(&[&[1.0, -2.0, 0.5][..], &[0.0, 3.0, 1.0][..]]);
        let xs = Matrix::from_fn(20, 3, |i, j| ((i * 5 + j * 7) % 13) as f32 * 0.3 - 1.5);
        let ys = xs.matmul(&m_true.transpose());
        let w = ridge_regression(&xs, &ys, 1e-6).unwrap();
        assert_close(w.as_slice(), m_true.as_slice(), 1e-3);
    }

    #[test]
    fn ridge_shrinks_with_large_lambda() {
        let xs = Matrix::from_fn(10, 2, |i, j| (i + j) as f32 * 0.1);
        let ys = Matrix::from_fn(10, 1, |i, _| i as f32);
        let small = ridge_regression(&xs, &ys, 1e-6).unwrap();
        let big = ridge_regression(&xs, &ys, 1e6).unwrap();
        assert!(big.max_abs() < small.max_abs(), "regularization must shrink weights");
        assert!(big.max_abs() < 1e-3);
    }

    #[test]
    fn ridge_handles_underdetermined_with_regularization() {
        // 2 samples, 5 features: only solvable thanks to lambda.
        let xs = Matrix::from_fn(2, 5, |i, j| (i * 5 + j) as f32 * 0.2);
        let ys = Matrix::from_fn(2, 1, |i, _| i as f32);
        let w = ridge_regression(&xs, &ys, 0.1).unwrap();
        assert_eq!(w.shape(), (1, 5));
        assert!(w.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    #[should_panic(expected = "square system")]
    fn solve_rejects_non_square() {
        solve(&Matrix::zeros(2, 3), &Matrix::zeros(2, 1));
    }
}
