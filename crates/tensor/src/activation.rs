//! Activation functions used by the DNC controller and interface vector.
//!
//! The DNC interface vector (Graves et al. 2016, and Fig. 2 of the HiMA
//! paper) constrains its fields with three activations: `sigmoid` for gates,
//! `oneplus` for strengths (range `[1, ∞)`), and `tanh` inside the LSTM.
//!
//! All three are defined in [`mod@crate::transcend`] — in-repo arithmetic,
//! the same bits on every host — and re-exported here under the names the
//! controller code reads.

pub use crate::transcend::{oneplus, sigmoid, tanh};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transcend::softplus;

    #[test]
    fn sigmoid_midpoint_and_limits() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(100.0) > 0.999_999);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn sigmoid_is_monotone() {
        let xs = [-5.0, -1.0, 0.0, 1.0, 5.0];
        for w in xs.windows(2) {
            assert!(sigmoid(w[0]) < sigmoid(w[1]));
        }
    }

    #[test]
    fn oneplus_lower_bound() {
        for x in [-50.0, -1.0, 0.0, 1.0, 50.0] {
            assert!(oneplus(x) >= 1.0, "oneplus({x}) < 1");
        }
        assert!((oneplus(0.0) as f64 - (1.0 + 2f64.ln())).abs() < 1e-6);
    }

    #[test]
    fn softplus_stable_extremes() {
        assert_eq!(softplus(100.0), 100.0);
        assert_eq!(softplus(-100.0), 0.0);
        assert!((softplus(0.0) as f64 - 2f64.ln()).abs() < 1e-6);
    }
}
