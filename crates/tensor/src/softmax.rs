//! Exact softmax and the PLA+LUT hardware approximation of Section 5.2.
//!
//! HiMA approximates the exponential inside softmax with a piece-wise linear
//! approximation (PLA) whose per-segment affine coefficients are stored in a
//! small look-up table (LUT), so each evaluation costs one multiply and one
//! add. [`PlaSoftmax`] models that unit: the input is max-shifted into
//! `(-∞, 0]`, clamped to the table's range, and the segment's `(slope,
//! intercept)` pair is applied.

/// Exact softmax over `xs`, numerically stabilized by max-subtraction —
/// the allocating form of [`softmax_inplace`], which defines the bits.
///
/// Returns a vector of the same length summing to 1 (empty for an empty
/// input).
///
/// # Example
///
/// ```
/// let p = hima_tensor::softmax(&[1.0, 1.0]);
/// assert!((p[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax(xs: &[f32]) -> Vec<f32> {
    let mut out = xs.to_vec();
    softmax_inplace(&mut out);
    out
}

pub use crate::transcend::softmax_inplace;

/// Softmax computed with the default hardware PLA+LUT exponential
/// approximation (32 segments over `[-8, 0]`).
///
/// # Example
///
/// ```
/// let exact = hima_tensor::softmax(&[0.1, 0.9, 0.3]);
/// let approx = hima_tensor::softmax_approx(&[0.1, 0.9, 0.3]);
/// for (e, a) in exact.iter().zip(&approx) {
///     assert!((e - a).abs() < 0.02);
/// }
/// ```
pub fn softmax_approx(xs: &[f32]) -> Vec<f32> {
    PlaSoftmax::default().softmax(xs)
}

/// A piece-wise linear + LUT softmax unit (paper §5.2).
///
/// The exponential is approximated on `[-range, 0]` by `segments` affine
/// pieces; each piece stores a `(slope, intercept)` pair computed so the
/// approximation interpolates `e^x` at the segment endpoints. Inputs below
/// `-range` evaluate to 0 (they contribute nothing after normalization).
#[derive(Debug, Clone, PartialEq)]
pub struct PlaSoftmax {
    range: f32,
    /// `(slope, intercept)` per segment, covering `[-range, 0]` uniformly.
    table: Vec<(f32, f32)>,
}

impl PlaSoftmax {
    /// Builds a PLA table with `segments` uniform pieces over `[-range, 0]`,
    /// interpolating the in-repo [`exp`](crate::transcend::exp) at the
    /// segment endpoints — so the table, like everything computed from it,
    /// is the same bits on every host.
    ///
    /// # Panics
    ///
    /// Panics if `segments == 0` or `range <= 0`.
    pub fn new(segments: usize, range: f32) -> Self {
        assert!(segments > 0, "PLA needs at least one segment");
        assert!(range > 0.0, "PLA range must be positive");
        let seg_width = range / segments as f32;
        let table = (0..segments)
            .map(|s| {
                // Segment s covers [-range + s*w, -range + (s+1)*w].
                let x0 = -range + s as f32 * seg_width;
                let x1 = x0 + seg_width;
                let y0 = crate::transcend::exp(x0);
                let y1 = crate::transcend::exp(x1);
                let slope = (y1 - y0) / (x1 - x0);
                let intercept = y0 - slope * x0;
                (slope, intercept)
            })
            .collect();
        Self { range, table }
    }

    /// Approximate `e^x` for `x ≤ 0` using one multiply and one add.
    ///
    /// Inputs below the table range evaluate to 0; inputs above 0 are
    /// clamped to 0 (callers max-shift first, so this only guards misuse).
    pub(crate) fn exp_approx(&self, x: f32) -> f32 {
        let x = x.min(0.0);
        if x < -self.range {
            return 0.0;
        }
        let seg_width = self.range / self.table.len() as f32;
        let idx = (((x + self.range) / seg_width) as usize).min(self.table.len() - 1);
        let (slope, intercept) = self.table[idx];
        // The hardware datapath: 1 multiply + 1 add.
        slope * x + intercept
    }

    /// Softmax over `xs` using the approximate exponential.
    pub fn softmax(&self, xs: &[f32]) -> Vec<f32> {
        let mut out = xs.to_vec();
        self.softmax_inplace(&mut out);
        out
    }

    /// In-place form of [`PlaSoftmax::softmax`]: replaces `xs` by its
    /// approximate softmax without allocating. Bit-identical to the
    /// allocating form (same approximate exponentials, same left-to-right
    /// sum, same division; `exp_approx` is monotone, so the total-safe
    /// fallback picks the same argmax either way).
    pub fn softmax_inplace(&self, xs: &mut [f32]) {
        if xs.is_empty() {
            return;
        }
        let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut total = 0.0f32;
        for x in xs.iter_mut() {
            *x = self.exp_approx(*x - max);
            total += *x;
        }
        if total <= 0.0 {
            // All inputs fell outside the table range except the max, which
            // always maps to exp(0)=1; this branch is unreachable for a
            // well-formed table but keeps the unit total-safe.
            let argmax = xs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            xs.fill(0.0);
            xs[argmax] = 1.0;
            return;
        }
        for x in xs.iter_mut() {
            *x /= total;
        }
    }

    /// Maximum absolute error of the exponential approximation over a dense
    /// sweep of the table range (diagnostic used by the ablation bench).
    pub fn max_exp_error(&self, samples: usize) -> f32 {
        (0..=samples)
            .map(|i| {
                let x = -self.range * i as f32 / samples as f32;
                (self.exp_approx(x) as f64 - (x as f64).exp()).abs() as f32
            })
            .fold(0.0f32, f32::max)
    }
}

impl Default for PlaSoftmax {
    /// 32 segments over `[-8, 0]` — a small LUT (the paper's motivation is
    /// avoiding exponentially sized tables) with < 1% exponential error.
    fn default() -> Self {
        Self::new(32, 8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[0.0, 1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        for w in p.windows(2) {
            assert!(w[0] < w[1], "softmax must preserve order");
        }
    }

    #[test]
    fn softmax_uniform_inputs() {
        let p = softmax(&[5.0; 4]);
        assert_close(&p, &[0.25; 4], 1e-6);
    }

    #[test]
    fn inplace_softmax_is_bit_identical_to_allocating() {
        let xs = [0.3f32, -1.2, 2.5, 0.0, 1.1, -7.9];
        let mut got = xs;
        softmax_inplace(&mut got);
        assert_eq!(&got[..], &softmax(&xs)[..]);

        let pla = PlaSoftmax::default();
        let mut got = xs;
        pla.softmax_inplace(&mut got);
        assert_eq!(&got[..], &pla.softmax(&xs)[..]);

        softmax_inplace(&mut []); // empty is a no-op
        pla.softmax_inplace(&mut []);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        assert_close(&a, &b, 1e-6);
    }

    #[test]
    fn softmax_handles_extreme_inputs() {
        let p = softmax(&[1e30, -1e30]);
        assert!((p[0] - 1.0).abs() < 1e-6);
        assert!(p[1] < 1e-6);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn softmax_empty_is_empty() {
        assert!(softmax(&[]).is_empty());
        assert!(PlaSoftmax::default().softmax(&[]).is_empty());
    }

    #[test]
    fn pla_exp_error_is_small() {
        let pla = PlaSoftmax::default();
        assert!(pla.max_exp_error(1000) < 0.01, "err = {}", pla.max_exp_error(1000));
    }

    #[test]
    fn pla_exp_more_segments_reduce_error() {
        let coarse = PlaSoftmax::new(4, 8.0).max_exp_error(1000);
        let fine = PlaSoftmax::new(64, 8.0).max_exp_error(1000);
        assert!(fine < coarse);
    }

    #[test]
    fn pla_softmax_close_to_exact() {
        let xs = [0.3, -1.2, 2.5, 0.0, 1.1];
        let exact = softmax(&xs);
        let approx = PlaSoftmax::default().softmax(&xs);
        for (e, a) in exact.iter().zip(&approx) {
            assert!((e - a).abs() < 0.02, "exact {e} vs approx {a}");
        }
        assert!((approx.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn pla_exp_below_range_is_zero() {
        let pla = PlaSoftmax::new(8, 4.0);
        assert_eq!(pla.exp_approx(-10.0), 0.0);
    }

    #[test]
    fn pla_exp_interpolates_endpoints() {
        let pla = PlaSoftmax::new(8, 4.0);
        assert!((pla.exp_approx(0.0) - 1.0).abs() < 1e-5);
        assert!((pla.exp_approx(-4.0) as f64 - (-4.0f64).exp()).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn pla_rejects_zero_segments() {
        PlaSoftmax::new(0, 8.0);
    }
}
