//! Vector helpers shared by the DNC kernels.
//!
//! These free functions mirror the vector primitives listed in Table 1 of the
//! paper (inner products, element-wise arithmetic, accumulated products) and
//! are deliberately allocation-light so the functional model is cheap enough
//! to sweep over many configurations.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
pub fn norm(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Element-wise sum `a + b`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Element-wise difference `a - b`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Element-wise (Hadamard) product `a ∘ b`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "mul length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).collect()
}

/// Scales every element by `k`.
pub fn scale(a: &[f32], k: f32) -> Vec<f32> {
    a.iter().map(|x| x * k).collect()
}

/// Sum of all elements.
pub fn sum(a: &[f32]) -> f32 {
    a.iter().sum()
}

/// Running product prefix: `out[i] = Π_{j < i} a[j]`, with `out[0] = 1`.
///
/// This is the accumulated product (`vec acc-prod` in Table 1) used by the
/// allocation weighting `w_a[φ_j] = (1 − u[φ_j]) Π_{k<j} u[φ_k]`.
pub fn exclusive_prefix_product(a: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(a.len());
    let mut acc = 1.0;
    for &x in a {
        out.push(acc);
        acc *= x;
    }
    out
}

/// Argsort returning indices that would sort `a` ascending.
///
/// Ties are broken by index so the result is a deterministic permutation.
pub fn argsort_ascending(a: &[f32]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..a.len()).collect();
    idx.sort_by(|&i, &j| a[i].partial_cmp(&a[j]).unwrap_or(std::cmp::Ordering::Equal).then(i.cmp(&j)));
    idx
}

/// Returns `true` when the vector is a sub-probability distribution:
/// elements in `[0, 1 + tol]` and total ≤ `1 + tol`.
pub fn is_weighting(a: &[f32], tol: f32) -> bool {
    a.iter().all(|&x| x >= -tol && x <= 1.0 + tol) && sum(a) <= 1.0 + tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn dot_orthogonal_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn norm_pythagorean() {
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn elementwise_ops() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
        assert_eq!(mul(&[1.0, 2.0], &[3.0, 4.0]), vec![3.0, 8.0]);
        assert_eq!(scale(&[1.0, 2.0], 2.0), vec![2.0, 4.0]);
    }

    #[test]
    fn prefix_product_matches_manual() {
        assert_close(
            &exclusive_prefix_product(&[2.0, 3.0, 4.0]),
            &[1.0, 2.0, 6.0],
            1e-6,
        );
        assert_eq!(exclusive_prefix_product(&[]), Vec::<f32>::new());
    }

    #[test]
    fn argsort_sorts_and_breaks_ties_by_index() {
        assert_eq!(argsort_ascending(&[0.3, 0.1, 0.2]), vec![1, 2, 0]);
        assert_eq!(argsort_ascending(&[0.5, 0.5, 0.1]), vec![2, 0, 1]);
    }

    #[test]
    fn weighting_predicates() {
        assert!(is_weighting(&[0.2, 0.3], 1e-6));
        assert!(!is_weighting(&[0.9, 0.9], 1e-6));
    }
}
