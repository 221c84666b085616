//! Content-based addressing — the CW/CR kernels of Fig. 2.
//!
//! `C(M, k, β)[i] = softmax_i(β · cos(M[i,·], k))`: memory rows and the key
//! are L2-normalized, their inner products scaled by the strength `β`, and a
//! softmax turns the similarities into a weighting over slots. The softmax
//! can optionally run through the PLA+LUT hardware approximation (§5.2).
//!
//! [`content_weighting_into`] is the plain one-key definition (and the
//! write head's lookup). The memory unit's `R` read lookups go through
//! [`content_weightings_heads_into`], which takes the keys as the rows of
//! one `R × W` matrix so the `row · key` dots of all heads are one product
//! over `M`; everything after the dots is the one-key code, per head.

use hima_tensor::softmax::PlaSoftmax;
use hima_tensor::vector::norm;
use hima_tensor::{Backend, Matrix};

/// Guard added to norms so zero rows/keys produce zero similarity instead of
/// NaN (same role as the ε in Graves et al.'s cosine distance).
pub const NORM_EPSILON: f32 = 1e-6;

/// Content weighting `C(M, k, β)` over the rows of `memory`.
///
/// `approx` selects the exact or PLA+LUT softmax.
///
/// # Panics
///
/// Panics if `key.len() != memory.cols()`.
///
/// # Example
///
/// ```
/// use hima_tensor::Matrix;
/// use hima_dnc::content::content_weighting;
///
/// let m = Matrix::from_rows(&[&[1.0, 0.0][..], &[0.0, 1.0][..]]);
/// let w = content_weighting(&m, &[1.0, 0.0], 10.0, None);
/// assert!(w[0] > 0.99, "strong beta concentrates on the matching row");
/// ```
pub fn content_weighting(
    memory: &Matrix,
    key: &[f32],
    beta: f32,
    approx: Option<&PlaSoftmax>,
) -> Vec<f32> {
    let row_norms = memory.row_norms();
    let mut out = vec![0.0; memory.rows()];
    content_weighting_into(memory, key, beta, approx, &row_norms, &mut out);
    out
}

/// Output-buffer form of [`content_weighting`] reading pre-computed row
/// norms: the steady-state content-addressing kernel. `row_norms` is the
/// memory's per-row L2 norm vector (see
/// [`MemoryUnit`](crate::MemoryUnit)'s once-per-step cache) — since memory
/// changes only once per step, the `R + 1` content lookups share it
/// instead of recomputing `N · W` norms each. `out` is used as the
/// similarity scratch and receives the final weighting; no allocation.
///
/// Bit-identical to [`content_weighting`]: the cached norms are the same
/// floats [`Matrix::row_norms`] yields, and scale + softmax run the same
/// element order in place.
///
/// # Panics
///
/// Panics if `key.len() != memory.cols()` or `row_norms`/`out` lengths
/// differ from `memory.rows()`.
pub fn content_weighting_into(
    memory: &Matrix,
    key: &[f32],
    beta: f32,
    approx: Option<&PlaSoftmax>,
    row_norms: &[f32],
    out: &mut [f32],
) {
    content_weighting_into_with(memory, key, beta, approx, row_norms, out, Backend::Scalar);
}

/// Backend-dispatching form of [`content_weighting_into`]: the similarity
/// dots and the exact softmax run on the selected kernel tier. The scalar
/// tier is bit-identical to [`content_weighting_into`]; the blocked tier
/// re-associates the dot products within the documented tolerance. The
/// PLA softmax approximation (when selected) models a fixed hardware unit
/// and runs the same on either tier.
///
/// # Panics
///
/// Panics if `key.len() != memory.cols()` or `row_norms`/`out` lengths
/// differ from `memory.rows()`.
pub fn content_weighting_into_with(
    memory: &Matrix,
    key: &[f32],
    beta: f32,
    approx: Option<&PlaSoftmax>,
    row_norms: &[f32],
    out: &mut [f32],
    backend: Backend,
) {
    similarities_into_with(memory, key, row_norms, out, backend);
    sharpen(out, beta, approx, backend);
}

/// Cosine similarities between each memory row and `key` (the normalize +
/// similarity steps, before the softmax).
///
/// # Panics
///
/// Panics if `key.len() != memory.cols()`.
pub fn similarities(memory: &Matrix, key: &[f32]) -> Vec<f32> {
    let row_norms = memory.row_norms();
    let mut out = vec![0.0; memory.rows()];
    similarities_into(memory, key, &row_norms, &mut out);
    out
}

/// Output-buffer form of [`similarities`] reading pre-computed row norms
/// — allocation-free, and the hook through which the memory unit's
/// per-step norm cache reaches content addressing.
///
/// # Panics
///
/// Panics if `key.len() != memory.cols()` or `row_norms`/`out` lengths
/// differ from `memory.rows()`.
pub fn similarities_into(memory: &Matrix, key: &[f32], row_norms: &[f32], out: &mut [f32]) {
    similarities_into_with(memory, key, row_norms, out, Backend::Scalar);
}

/// Backend-dispatching form of [`similarities_into`]: the row · key dot
/// products run on the selected kernel tier (scalar keeps the reference
/// bit pattern, blocked re-associates the sums).
///
/// # Panics
///
/// Panics if `key.len() != memory.cols()` or `row_norms`/`out` lengths
/// differ from `memory.rows()`.
pub fn similarities_into_with(
    memory: &Matrix,
    key: &[f32],
    row_norms: &[f32],
    out: &mut [f32],
    backend: Backend,
) {
    assert_eq!(key.len(), memory.cols(), "key width must match memory word size");
    assert_eq!(row_norms.len(), memory.rows(), "row norm cache length mismatch");
    assert_eq!(out.len(), memory.rows(), "similarity output length mismatch");
    dots_into(memory, key, out, backend);
    cosines_from_dots(out, key, row_norms);
}

/// `out[i] = memory.row(i) · key`, each dot on the selected kernel tier.
fn dots_into(memory: &Matrix, key: &[f32], out: &mut [f32], backend: Backend) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = backend.dot(memory.row(i), key);
    }
}

/// Turns raw `row · key` dots into cosine similarities in place.
fn cosines_from_dots(dots: &mut [f32], key: &[f32], row_norms: &[f32]) {
    let key_norm = norm(key);
    for (d, &row_norm) in dots.iter_mut().zip(row_norms) {
        *d /= row_norm * key_norm + NORM_EPSILON;
    }
}

/// Scales similarities by the strength `beta` and normalizes them into a
/// weighting in place (exact softmax on `backend`, or the PLA unit).
fn sharpen(sims: &mut [f32], beta: f32, approx: Option<&PlaSoftmax>, backend: Backend) {
    for s in sims.iter_mut() {
        *s *= beta;
    }
    match approx {
        Some(p) => p.softmax_inplace(sims),
        None => backend.softmax_inplace(sims),
    }
}

/// Content weightings of all `R` read heads at once: row `h` of `out` is
/// `C(M, keys.row(h), betas[h])` — what [`content_weighting_into_with`]
/// yields for that key, computed with one pass over `memory` for the dots
/// of every head.
///
/// On the scalar tier the dots are one [`Backend::matmul_nt_into`]
/// (`keys · Mᵀ`): one head per SSE lane, each dot still one rounded
/// multiply then one rounded add per ascending `k`, so every row of `out`
/// is bit-identical to the one-key form. (A dot whose products are all
/// `-0.0` comes out `+0.0` here and `-0.0` from [`hima_tensor::vector::dot`],
/// whose sum starts from `-0.0`; the max-shifted softmax maps both to the
/// same weighting, and the head-batching tests pin `-0.0` keys.) The
/// blocked tier keeps its per-pair [`Backend::dot`] — the reduction shape
/// its results have always had — rather than the `matmul_nt` one.
///
/// # Panics
///
/// Panics if `keys` is not `R × memory.cols()`, `out` is not
/// `R × memory.rows()`, or `betas`/`row_norms` lengths differ from `R` /
/// `memory.rows()`.
pub fn content_weightings_heads_into(
    memory: &Matrix,
    keys: &Matrix,
    betas: &[f32],
    approx: Option<&PlaSoftmax>,
    row_norms: &[f32],
    out: &mut Matrix,
    backend: Backend,
) {
    assert_eq!(keys.cols(), memory.cols(), "key width must match memory word size");
    assert_eq!(betas.len(), keys.rows(), "one strength per read key");
    assert_eq!(row_norms.len(), memory.rows(), "row norm cache length mismatch");
    assert_eq!(out.shape(), (keys.rows(), memory.rows()), "similarity output shape mismatch");
    match backend {
        Backend::Scalar => backend.matmul_nt_into(keys, memory, out),
        Backend::Blocked => {
            for head in 0..keys.rows() {
                dots_into(memory, keys.row(head), out.row_mut(head), backend);
            }
        }
    }
    for (head, &beta) in betas.iter().enumerate() {
        let sims = out.row_mut(head);
        cosines_from_dots(sims, keys.row(head), row_norms);
        sharpen(sims, beta, approx, backend);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_rows() -> Matrix {
        Matrix::from_rows(&[
            &[1.0, 0.0, 0.0][..],
            &[0.0, 1.0, 0.0][..],
            &[0.0, 0.0, 1.0][..],
        ])
    }

    #[test]
    fn matching_row_wins() {
        let w = content_weighting(&unit_rows(), &[0.0, 1.0, 0.0], 20.0, None);
        assert!(w[1] > 0.99);
        assert!(w[0] < 0.01 && w[2] < 0.01);
    }

    #[test]
    fn weighting_is_distribution() {
        let m = Matrix::from_fn(8, 4, |i, j| ((i * 3 + j) as f32 * 0.7).sin());
        let w = content_weighting(&m, &[0.3, -0.2, 0.8, 0.1], 2.0, None);
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(w.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn beta_one_is_diffuse_beta_large_is_sharp() {
        let m = unit_rows();
        let diffuse = content_weighting(&m, &[1.0, 0.2, 0.1], 1.0, None);
        let sharp = content_weighting(&m, &[1.0, 0.2, 0.1], 50.0, None);
        assert!(sharp[0] > diffuse[0]);
    }

    #[test]
    fn zero_key_gives_uniform_weighting() {
        let w = content_weighting(&unit_rows(), &[0.0, 0.0, 0.0], 5.0, None);
        for &x in &w {
            assert!((x - 1.0 / 3.0).abs() < 1e-5);
        }
    }

    #[test]
    fn zero_memory_row_is_not_nan() {
        let m = Matrix::from_rows(&[&[0.0, 0.0][..], &[1.0, 0.0][..]]);
        let w = content_weighting(&m, &[1.0, 0.0], 3.0, None);
        assert!(w.iter().all(|x| x.is_finite()));
        assert!(w[1] > w[0]);
    }

    #[test]
    fn approx_softmax_close_to_exact() {
        let m = Matrix::from_fn(16, 8, |i, j| ((i * 5 + j * 3) as f32 * 0.31).cos());
        let key: Vec<f32> = (0..8).map(|j| (j as f32 * 0.5).sin()).collect();
        let exact = content_weighting(&m, &key, 3.0, None);
        let pla = PlaSoftmax::default();
        let approx = content_weighting(&m, &key, 3.0, Some(&pla));
        for (e, a) in exact.iter().zip(&approx) {
            assert!((e - a).abs() < 0.02);
        }
    }

    #[test]
    fn similarities_bounded_by_one() {
        let m = Matrix::from_fn(6, 5, |i, j| ((i + j) as f32).sin());
        let key: Vec<f32> = (0..5).map(|j| (j as f32).cos()).collect();
        for s in similarities(&m, &key) {
            assert!(s.abs() <= 1.0 + 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "key width must match")]
    fn rejects_mismatched_key() {
        similarities(&unit_rows(), &[1.0]);
    }

    #[test]
    fn into_forms_with_cached_norms_are_bit_identical() {
        let m = Matrix::from_fn(12, 5, |i, j| ((i * 5 + j) as f32 * 0.27).sin());
        let key: Vec<f32> = (0..5).map(|j| (j as f32 * 0.41).cos()).collect();
        let norms = m.row_norms();
        let mut out = vec![f32::NAN; 12];

        similarities_into(&m, &key, &norms, &mut out);
        assert_eq!(out, similarities(&m, &key));

        content_weighting_into(&m, &key, 2.5, None, &norms, &mut out);
        assert_eq!(out, content_weighting(&m, &key, 2.5, None));

        let pla = PlaSoftmax::default();
        content_weighting_into(&m, &key, 2.5, Some(&pla), &norms, &mut out);
        assert_eq!(out, content_weighting(&m, &key, 2.5, Some(&pla)));
    }

    #[test]
    fn head_batched_weightings_equal_the_one_key_form_bit_for_bit() {
        // One head takes the row kernel, two or more the lane-packed one;
        // N covers every `n % 4` and W is odd.
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let pla = PlaSoftmax::default();
        for (n, w) in [(1usize, 3usize), (3, 5), (7, 5), (64, 17), (130, 9)] {
            let m = Matrix::from_fn(n, w, |i, j| ((i * w + j) as f32 * 0.27).sin());
            let norms = m.row_norms();
            for r in 1..=5usize {
                let mut keys = Matrix::from_fn(r, w, |h, j| ((h * 7 + j) as f32 * 0.41).cos());
                keys.row_mut(r - 1).fill(-0.0);
                let betas: Vec<f32> = (0..r).map(|h| 1.0 + h as f32 * 2.5).collect();
                for approx in [None, Some(&pla)] {
                    for backend in [Backend::Scalar, Backend::Blocked] {
                        let mut got = Matrix::filled(r, n, f32::NAN);
                        content_weightings_heads_into(
                            &m, &keys, &betas, approx, &norms, &mut got, backend,
                        );
                        let mut want = vec![f32::NAN; n];
                        for (h, &beta) in betas.iter().enumerate() {
                            let key = keys.row(h);
                            content_weighting_into_with(
                                &m, key, beta, approx, &norms, &mut want, backend,
                            );
                            assert_eq!(
                                bits(got.row(h)),
                                bits(&want),
                                "n={n} w={w} r={r} h={h} {backend:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row norm cache length mismatch")]
    fn into_form_rejects_stale_norm_cache_length() {
        let m = unit_rows();
        similarities_into(&m, &[1.0, 0.0, 0.0], &[1.0; 2], &mut [0.0; 3]);
    }
}
