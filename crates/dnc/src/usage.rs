//! Retention and usage — the first two HW kernels of Fig. 2.
//!
//! The retention vector `ψ` determines how much each slot survives the free
//! gates: `ψ[i] = Π_r (1 − g_f^r · w_r^{t−1}[i, r])`. The usage vector then
//! tracks which slots hold live data:
//! `u_t = (u_{t−1} + w_w^{t−1} − u_{t−1} ∘ w_w^{t−1}) ∘ ψ`.
//! Both stay inside `[0, 1]` by construction — a property the tests and the
//! crate's proptests pin down.

use hima_tensor::Matrix;

/// Retention vector `ψ` from the free gates and the previous read
/// weightings (`R × N`: `read_weights[(r, i)]` = head `r`, slot `i`),
/// written into `psi`.
///
/// # Panics
///
/// Panics if `free_gates.len() != read_weights.rows()` or `psi.len()`
/// differs from the slot count.
pub fn retention_into(free_gates: &[f32], read_weights: &Matrix, psi: &mut [f32]) {
    assert_eq!(free_gates.len(), read_weights.rows(), "one free gate per read head");
    assert_eq!(psi.len(), read_weights.cols(), "retention output length mismatch");
    psi.fill(1.0);
    for (head, gate) in free_gates.iter().enumerate() {
        for (p, &w) in psi.iter_mut().zip(read_weights.row(head)) {
            *p *= 1.0 - gate * w;
        }
    }
}

/// Usage update `u ← (u + w_w − u ∘ w_w) ∘ ψ`, in place: each slot's
/// update reads only its own previous value, so the carried usage vector
/// is rewritten directly.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn update_usage_inplace(usage: &mut [f32], write_weighting: &[f32], psi: &[f32]) {
    assert_eq!(usage.len(), write_weighting.len(), "usage/write length mismatch");
    assert_eq!(usage.len(), psi.len(), "usage/retention length mismatch");
    for ((u, &w), &p) in usage.iter_mut().zip(write_weighting).zip(psi) {
        *u = (*u + w - *u * w) * p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_all_gates_closed_is_ones() {
        let mut psi = [f32::NAN; 2];
        retention_into(&[0.0, 0.0], &Matrix::from_rows(&[[0.5, 0.5], [0.9, 0.1]]), &mut psi);
        assert_eq!(psi, [1.0, 1.0]);
    }

    #[test]
    fn retention_open_gate_frees_read_slots() {
        let mut psi = [f32::NAN; 3];
        retention_into(&[1.0], &Matrix::from_rows(&[[1.0, 0.0, 0.5]]), &mut psi);
        assert_eq!(psi, [0.0, 1.0, 0.5]);
    }

    #[test]
    fn retention_multiplies_across_heads() {
        let mut psi = [f32::NAN];
        retention_into(&[1.0, 1.0], &Matrix::from_rows(&[[0.5], [0.5]]), &mut psi);
        assert!((psi[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn retention_stays_in_unit_interval() {
        let heads = Matrix::from_rows(&[[0.3, 0.9, 0.0], [0.7, 0.1, 1.0]]);
        let mut psi = [f32::NAN; 3];
        retention_into(&[0.8, 0.6], &heads, &mut psi);
        assert!(psi.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn usage_rises_with_writes() {
        let mut u = [0.0, 0.5];
        update_usage_inplace(&mut u, &[1.0, 0.5], &[1.0, 1.0]);
        assert_eq!(u[0], 1.0);
        assert!((u[1] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn usage_freed_by_retention() {
        let mut u = [0.9, 0.9];
        update_usage_inplace(&mut u, &[0.0, 0.0], &[0.0, 1.0]);
        assert_eq!(u, [0.0, 0.9]);
    }

    #[test]
    fn usage_bounded_in_unit_interval() {
        let mut u = [0.99, 0.01];
        update_usage_inplace(&mut u, &[0.99, 0.99], &[1.0, 1.0]);
        assert!(u.iter().all(|&x| (0.0..=1.0).contains(&x)), "{u:?}");
    }

    #[test]
    fn usage_without_write_or_free_is_unchanged() {
        let mut u = [0.2, 0.7, 0.4];
        update_usage_inplace(&mut u, &[0.0; 3], &[1.0; 3]);
        assert_eq!(u, [0.2, 0.7, 0.4]);
    }

    #[test]
    #[should_panic(expected = "one free gate per read head")]
    fn retention_validates_heads() {
        retention_into(&[0.5], &Matrix::from_rows(&[[0.1], [0.2]]), &mut [0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn usage_validates_lengths() {
        update_usage_inplace(&mut [0.1], &[0.1, 0.2], &[1.0]);
    }
}
