//! Content-based addressing — the CW/CR kernels of Fig. 2.
//!
//! `C(M, k, β)[i] = softmax_i(β · cos(M[i,·], k))`: memory rows and the key
//! are L2-normalized, their inner products scaled by the strength `β`, and a
//! softmax turns the similarities into a weighting over slots. The softmax
//! can optionally run through the PLA+LUT hardware approximation (§5.2).
//!
//! [`content_weighting_into`] is the plain one-key definition, the
//! reference the tests compare against. The memory unit's lookups — the
//! write key before the write, the `R` read keys after it — go through
//! `content_weightings_heads_into`, which takes the keys as the rows of
//! one block and makes **one pass over `M` per phase**: the `row · key`
//! dots of every key *and*, whenever the [`NormCache`] is stale, the row
//! norms come out of a single [`hima_tensor::fused::row_dots_into`].
//! Everything after the dots is the one-key code, per key.
//!
//! That kernel is pinned to [`Matrix::matmul_nt_into`] (the dots) and
//! [`Matrix::row_norms_into`] (the norms). Its dots start from `+0.0`
//! where [`hima_tensor::vector::dot`] — the one-key definition's — starts
//! from `-0.0`, so a dot whose products are all `-0.0` (a `-0.0` key over
//! non-negative rows) reads `+0.0` here and `-0.0` there. Nothing
//! downstream can tell: the cosine is `±0 / ε`, the strength keeps the
//! zero, and the max-shifted softmax (exact or PLA) maps both to the same
//! weighting — the head-batching tests inject `-0.0` read *and* write
//! keys and compare `to_bits`.

use hima_tensor::softmax::PlaSoftmax;
use hima_tensor::vector::{dot, norm};
use hima_tensor::Matrix;

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
    similarities_into(memory, key, row_norms, out);
    sharpen(out, beta, approx);
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
pub(crate) fn similarities_into(memory: &Matrix, key: &[f32], row_norms: &[f32], out: &mut [f32]) {
    assert_eq!(key.len(), memory.cols(), "key width must match memory word size");
    assert_eq!(row_norms.len(), memory.rows(), "row norm cache length mismatch");
    assert_eq!(out.len(), memory.rows(), "similarity output length mismatch");
    for (i, o) in out.iter_mut().enumerate() {
        *o = dot(memory.row(i), key);
    }
    cosines_from_dots(out, key, row_norms);
}

/// Turns raw `row · key` dots into cosine similarities in place.
fn cosines_from_dots(dots: &mut [f32], key: &[f32], row_norms: &[f32]) {
    let key_norm = norm(key);
    for (d, &row_norm) in dots.iter_mut().zip(row_norms) {
        *d /= row_norm * key_norm + NORM_EPSILON;
    }
}

/// Scales similarities by the strength `beta` and normalizes them into a
/// weighting in place (the exact softmax, or the PLA unit).
fn sharpen(sims: &mut [f32], beta: f32, approx: Option<&PlaSoftmax>) {
    for s in sims.iter_mut() {
        *s *= beta;
    }
    match approx {
        Some(p) => p.softmax_inplace(sims),
        None => hima_tensor::softmax::softmax_inplace(sims),
    }
}

/// The per-row L2 norms of a memory as content addressing caches them:
/// the values, and whether they still describe the memory. Memory changes
/// only at the write (and when a datapath rounds it), so on the `f32`
/// datapath the `R + 1` lookups of a step — and of later steps that write
/// nothing — share one norm pass; whoever mutates the memory calls
/// `NormCache::invalidate`, and the next lookup refreshes the norms in
/// the pass it makes over the memory anyway.
#[derive(Debug, Clone)]
pub struct NormCache {
    norms: Vec<f32>,
    pub(crate) valid: bool,
}

impl NormCache {
    /// A stale cache for a memory of `rows` rows.
    pub fn new(rows: usize) -> Self {
        Self { norms: vec![0.0; rows], valid: false }
    }

    /// Marks the norms stale: the memory they describe has changed.
    pub(crate) fn invalidate(&mut self) {
        self.valid = false;
    }

    /// The cached norms (meaningful only until the memory next changes).
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }
}

/// Content weightings of all the keys of one phase at once: `keys` holds
/// `R = betas.len()` keys of `memory.cols()` values, row-major, and row
/// `h` of `out` (`R × memory.rows()`, row-major) is
/// `C(M, key_h, betas[h])` — what [`content_weighting_into`] yields for
/// that key, bit for bit (see the [module docs](self) for the kernel and
/// its one `-0.0` caveat) — from one pass over `memory`. A stale `norms`
/// is refreshed in that same pass (and marked valid).
///
/// # Panics
///
/// Panics if `keys` is not `R × memory.cols()`, `out` is not
/// `R × memory.rows()` or `norms` was sized for another memory.
pub(crate) fn content_weightings_heads_into(
    memory: &Matrix,
    keys: &[f32],
    betas: &[f32],
    approx: Option<&PlaSoftmax>,
    norms: &mut NormCache,
    out: &mut [f32],
) {
    let (n, w) = memory.shape();
    assert_eq!(keys.len(), betas.len() * w, "key width must match memory word size");
    assert_eq!(norms.norms.len(), n, "row norm cache length mismatch");
    assert_eq!(out.len(), betas.len() * n, "similarity output shape mismatch");
    let stale = (!norms.valid).then_some(&mut norms.norms[..]);
    hima_tensor::fused::row_dots_into(keys, memory, out, stale);
    norms.valid = true;
    for ((key, sims), &beta) in keys.chunks_exact(w).zip(out.chunks_exact_mut(n)).zip(betas) {
        cosines_from_dots(sims, key, &norms.norms);
        sharpen(sims, beta, approx);
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
        // N covers a lone row, every `n % 4`, whole blocks of eight and a
        // block plus remainder; W is odd.
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
                    for stale in [false, true] {
                        // A stale cache is refilled by the same call; a
                        // valid one is read as it is.
                        let mut cache = NormCache::new(n);
                        if !stale {
                            m.row_norms_into(&mut cache.norms);
                            cache.valid = true;
                        }
                        let mut got = Matrix::filled(r, n, f32::NAN);
                        content_weightings_heads_into(
                            &m,
                            keys.as_slice(),
                            &betas,
                            approx,
                            &mut cache,
                            got.as_mut_slice(),
                        );
                        assert!(cache.valid);
                        assert_eq!(bits(cache.norms()), bits(&norms), "n={n} w={w} r={r}");
                        let mut want = vec![f32::NAN; n];
                        for (h, &beta) in betas.iter().enumerate() {
                            let key = keys.row(h);
                            content_weighting_into(&m, key, beta, approx, cache.norms(), &mut want);
                            assert_eq!(bits(got.row(h)), bits(&want), "n={n} w={w} r={r} h={h}");
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
