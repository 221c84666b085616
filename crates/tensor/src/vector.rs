//! Vector helpers shared by the DNC kernels.
//!
//! These free functions are the scalar vector primitives of Table 1 of the
//! paper that the kernels share: inner products, norms, sums and the
//! element-wise add of the one-lane LSTM's bias. The accumulated product
//! lives in the allocation kernel that runs it.

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

/// Sum of all elements.
pub fn sum(a: &[f32]) -> f32 {
    a.iter().sum()
}

/// Returns `true` when the vector is a sub-probability distribution:
/// elements in `[0, 1 + tol]` and total ≤ `1 + tol`.
pub fn is_weighting(a: &[f32], tol: f32) -> bool {
    a.iter().all(|&x| x >= -tol && x <= 1.0 + tol) && sum(a) <= 1.0 + tol
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(sum(&[1.0, 2.0, 3.0]), 6.0);
    }

    #[test]
    fn weighting_predicates() {
        assert!(is_weighting(&[0.2, 0.3], 1e-6));
        assert!(!is_weighting(&[0.9, 0.9], 1e-6));
    }
}
