//! Activation functions used by the DNC controller and interface vector.
//!
//! The DNC interface vector (Graves et al. 2016, and Fig. 2 of the HiMA
//! paper) constrains its fields with three activations: `sigmoid` for gates,
//! `oneplus` for strengths (range `[1, ∞)`), and `tanh` inside the LSTM.

/// Logistic sigmoid `σ(x) = 1 / (1 + e^{-x})`.
///
/// Numerically stable for large `|x|`.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// `oneplus(x) = 1 + log(1 + e^x)`, the softplus shifted to `[1, ∞)`.
///
/// DNC uses this for read/write strengths `β ≥ 1`.
pub fn oneplus(x: f32) -> f32 {
    1.0 + softplus(x)
}

/// Softplus `log(1 + e^x)`, numerically stable.
pub(crate) fn softplus(x: f32) -> f32 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        0.0
    } else {
        x.exp().ln_1p()
    }
}

/// Hyperbolic tangent (thin wrapper for symmetry with the other activations).
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!((oneplus(0.0) - (1.0 + 2f32.ln())).abs() < 1e-6);
    }

    #[test]
    fn softplus_stable_extremes() {
        assert_eq!(softplus(100.0), 100.0);
        assert_eq!(softplus(-100.0), 0.0);
        assert!((softplus(0.0) - 2f32.ln()).abs() < 1e-6);
    }
}
