//! Lane-packed shared-weight product: the [`Backend::Scalar`] kernel for
//! `lhs · otherᵀ` when several rows of `lhs` are live — batch lanes
//! sharing the controller and projection weights, or the `R` read heads
//! of one memory unit sharing its linkage and memory (there the "lane"
//! is a head).
//!
//! The row kernel ([`Matrix::matmul_nt_masked_into`]) walks the whole
//! weight matrix once per active lane with four scalar accumulators, so a
//! step costs `active × N × K` dependent scalar adds. Here up to four
//! active rows of `lhs` are transposed into a `k`-major tile — one lane
//! per SSE register element — and the weight matrix is walked **once per
//! group of four lanes**:
//!
//! ```text
//! acc_j[lane] += tile[k][lane] * w[j][k]        (j = four output columns per pass)
//! ```
//!
//! Every output element is still exactly one rounded `mul` then one
//! rounded `add` per `k`, in ascending `k`, starting from `0.0` — the
//! same sequence of IEEE operations the row kernel performs on that
//! element; `mulps`/`addps` round each lane exactly as `mulss`/`addss`
//! do. Nothing is re-associated, so the result is **bit-identical** to
//! the row kernel, to [`Matrix::matvec`] per lane, and therefore to
//! per-lane stepping. That is why this kernel belongs to the bit-exact
//! `Scalar` tier and not to `Blocked`, whose kernels split each dot
//! product across accumulators.
//!
//! The tile is a fixed stack buffer covering [`TILE_K`] values of `k`;
//! longer rows are processed tile by tile, the partial sums parked in
//! `out` between tiles (an `f32` store and reload changes nothing), so
//! the kernel needs no caller scratch and never allocates. Output columns
//! beyond the last multiple of four use the row kernel's own remainder
//! expression.
//!
//! The kernel is written in baseline SSE2 and exists only on `x86_64`;
//! elsewhere [`Backend::Scalar`] keeps the row kernel.
//!
//! [`Backend::Scalar`]: crate::Backend::Scalar

use crate::lane_mask::LaneMask;
use crate::matrix::{nt_row_into, Matrix};
use core::arch::x86_64::{
    __m128, _mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps, _mm_setzero_ps, _mm_storeu_ps,
    _MM_TRANSPOSE4_PS,
};

/// Lanes per SSE register: the size of one packed group.
const GROUP: usize = 4;

/// Values of `k` one stack tile covers (`GROUP × TILE_K` floats, 8 KiB).
const TILE_K: usize = 512;

/// Fewest active lanes for which packing beats the row kernel. A packed
/// group costs about the same whether it carries two, three or four
/// lanes, the row kernel costs one pass per lane, and the committed
/// `matmul_nt_masked_lanes` rows of `BENCH_kernels.json` read 1.4× at
/// two active lanes, 2.0× at three and 2.5× at four — so packing starts
/// at two and a lone lane always takes the row kernel.
pub(crate) const MIN_ACTIVE: usize = 2;

/// `lhs · otherᵀ` into `out` with the active rows lane-packed four at a
/// time; every row is active when `mask` is `None`. Same contract and
/// same bits as [`Matrix::matmul_nt_masked_into`] (or, unmasked,
/// [`Matrix::matmul_nt_into`]). A trailing group of fewer than
/// [`MIN_ACTIVE`] lanes takes the row kernel.
///
/// # Panics
///
/// Panics on shape mismatch or if `mask.lanes() != lhs.rows()`.
pub(crate) fn matmul_nt_into(
    lhs: &Matrix,
    other: &Matrix,
    mask: Option<&LaneMask>,
    out: &mut Matrix,
) {
    lhs.assert_nt_shapes(other, out);
    if let Some(mask) = mask {
        assert_eq!(mask.lanes(), lhs.rows(), "lane mask size mismatch");
    }
    let mut group = [0usize; GROUP];
    let mut len = 0;
    for i in 0..lhs.rows() {
        if mask.is_some_and(|m| !m.is_active(i)) {
            // Inactive rows are zero (stale scratch must not leak through).
            out.row_mut(i).fill(0.0);
            continue;
        }
        group[len] = i;
        len += 1;
        if len == GROUP {
            nt_group_into(lhs, &group, other, out);
            len = 0;
        }
    }
    if len >= MIN_ACTIVE {
        nt_group_into(lhs, &group[..len], other, out);
    } else {
        for &i in &group[..len] {
            nt_row_into(lhs.row(i), other, out.row_mut(i));
        }
    }
}

/// `out.row(l) = lhs.row(l) · otherᵀ` for the one to four rows in `lanes`.
fn nt_group_into(lhs: &Matrix, lanes: &[usize], other: &Matrix, out: &mut Matrix) {
    let (n, k) = (other.rows(), lhs.cols());
    let n4 = n - n % 4;
    // Lanes beyond `lanes.len()` stay zero: they multiply into
    // accumulators that are never stored.
    let mut tile = [0.0f32; GROUP * TILE_K];
    let mut k0 = 0;
    // At least one pass, so a zero-width product still writes its zeros.
    loop {
        let kc = (k - k0).min(TILE_K);
        for (l, &lane) in lanes.iter().enumerate() {
            for (slot, &x) in tile.chunks_exact_mut(GROUP).zip(&lhs.row(lane)[k0..k0 + kc]) {
                slot[l] = x;
            }
        }
        let tile = &tile[..GROUP * kc];
        for j in (0..n4).step_by(4) {
            let w: [&[f32]; 4] = std::array::from_fn(|c| &other.row(j + c)[k0..k0 + kc]);
            // acc[c] holds column `j + c` for the four lanes; `out` holds
            // lane rows, so moving between the two is a 4×4 transpose.
            let mut acc = if k0 == 0 { [zero(); 4] } else { load_block(out, lanes, j) };
            for (kk, p) in tile.chunks_exact(GROUP).enumerate() {
                let p = load(p);
                for c in 0..4 {
                    acc[c] = mul_add(p, splat(w[c][kk]), acc[c]);
                }
            }
            store_block(acc, out, lanes, j);
        }
        k0 += kc;
        if k0 >= k {
            break;
        }
    }
    for &lane in lanes {
        for j in n4..n {
            // The row kernel's remainder-column expression, verbatim.
            out[(lane, j)] = lhs.row(lane).iter().zip(other.row(j)).map(|(a, b)| a * b).sum();
        }
    }
}

#[inline(always)]
fn zero() -> __m128 {
    // SAFETY: SSE2 is part of the x86_64 baseline ABI.
    unsafe { _mm_setzero_ps() }
}

#[inline(always)]
fn splat(v: f32) -> __m128 {
    // SAFETY: SSE2 is part of the x86_64 baseline ABI.
    unsafe { _mm_set1_ps(v) }
}

/// Loads four lanes from the front of `s` (panics if shorter).
#[inline(always)]
fn load(s: &[f32]) -> __m128 {
    let s = &s[..GROUP];
    // SAFETY: `s` is four contiguous f32s, so the unaligned load reads
    // in-bounds; SSE2 is part of the x86_64 baseline ABI.
    unsafe { _mm_loadu_ps(s.as_ptr()) }
}

/// Stores four lanes into the front of `d` (panics if shorter).
#[inline(always)]
fn store(v: __m128, d: &mut [f32]) {
    let d = &mut d[..GROUP];
    // SAFETY: `d` is four contiguous f32s, so the unaligned store writes
    // in-bounds; SSE2 is part of the x86_64 baseline ABI.
    unsafe { _mm_storeu_ps(d.as_mut_ptr(), v) }
}

/// `a * b + acc` as two rounded operations (never fused), per lane.
#[inline(always)]
fn mul_add(a: __m128, b: __m128, acc: __m128) -> __m128 {
    // SAFETY: SSE2 is part of the x86_64 baseline ABI.
    unsafe { _mm_add_ps(acc, _mm_mul_ps(a, b)) }
}

#[inline(always)]
fn transpose(mut m: [__m128; 4]) -> [__m128; 4] {
    let [a, b, c, d] = &mut m;
    // SAFETY: register-only shuffles; SSE2 is part of the x86_64
    // baseline ABI.
    unsafe { _MM_TRANSPOSE4_PS(a, b, c, d) };
    m
}

/// The partial sums `out[lanes[l]][j..j + 4]`, transposed to one register
/// per column (absent lanes read as zero).
#[inline(always)]
fn load_block(out: &Matrix, lanes: &[usize], j: usize) -> [__m128; 4] {
    let mut rows = [zero(); 4];
    for (r, &lane) in rows.iter_mut().zip(lanes) {
        *r = load(&out.row(lane)[j..]);
    }
    transpose(rows)
}

/// Writes the per-column accumulators back as `out[lanes[l]][j..j + 4]`.
#[inline(always)]
fn store_block(acc: [__m128; 4], out: &mut Matrix, lanes: &[usize], j: usize) {
    for (r, &lane) in transpose(acc).into_iter().zip(lanes) {
        store(r, &mut out.row_mut(lane)[j..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, phase: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| ((i * cols + j) as f32 * 0.37 + phase).sin())
    }

    /// Packed output vs per-row `matvec`, bit for bit, with stale `out`.
    fn assert_packed_matches_matvec(lhs: &Matrix, w: &Matrix, mask: &LaneMask) {
        let mut out = Matrix::filled(lhs.rows(), w.rows(), f32::NAN);
        matmul_nt_into(lhs, w, Some(mask), &mut out);
        for i in 0..lhs.rows() {
            let want =
                if mask.is_active(i) { w.matvec(lhs.row(i)) } else { vec![0.0; w.rows()] };
            let (got, want): (Vec<u32>, Vec<u32>) = (
                out.row(i).iter().map(|x| x.to_bits()).collect(),
                want.iter().map(|x| x.to_bits()).collect(),
            );
            let (k, n) = (lhs.cols(), w.rows());
            assert_eq!(got, want, "row {i} of {:?} (k={k}, n={n})", mask.as_bools());
        }
    }

    #[test]
    fn packed_equals_matvec_for_every_small_mask_and_awkward_shape() {
        // K straddles 1, the 4-lane boundary and a long row; N covers
        // every `n % 4`.
        for k in [1usize, 3, 4, 5, 290] {
            for n in [1usize, 4, 6, 7, 9] {
                let w = mat(n, k, 1.1);
                for b in 1..=5usize {
                    let lhs = mat(b, k, 0.2);
                    for bits in 0u32..1 << b {
                        let mask = LaneMask::from_fn(b, |i| bits >> i & 1 == 1);
                        assert_packed_matches_matvec(&lhs, &w, &mask);
                    }
                }
            }
        }
    }

    #[test]
    fn packed_equals_matvec_for_wider_batches_and_ragged_masks() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for b in 1..=9usize {
            let lhs = mat(b, 37, 0.7);
            let w = mat(11, 37, 1.9);
            assert_packed_matches_matvec(&lhs, &w, &LaneMask::full(b));
            for _ in 0..16 {
                let bits = next();
                let mask = LaneMask::from_fn(b, |i| bits >> i & 1 == 1);
                assert_packed_matches_matvec(&lhs, &w, &mask);
            }
        }
    }

    #[test]
    fn unmasked_product_is_the_full_mask_product() {
        // One to nine rows: a lone row (row kernel), one partial group,
        // full groups, and a full group plus a one-row tail.
        for b in 1..=9usize {
            let (lhs, w) = (mat(b, 37, 0.7), mat(11, 37, 1.9));
            let mut got = Matrix::filled(b, 11, f32::NAN);
            matmul_nt_into(&lhs, &w, None, &mut got);
            let mut want = Matrix::filled(b, 11, f32::NAN);
            matmul_nt_into(&lhs, &w, Some(&LaneMask::full(b)), &mut want);
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "b={b}");
            assert_eq!(bits(&got), bits(&lhs.matmul_nt(&w)), "b={b} vs the row kernel");
        }
    }

    #[test]
    fn rows_longer_than_one_tile_carry_their_partial_sums_exactly() {
        for k in [TILE_K - 1, TILE_K, TILE_K + 1, 2 * TILE_K + 35] {
            let lhs = mat(6, k, 0.4);
            let w = mat(10, k, 2.3);
            let mask = LaneMask::from(vec![true, true, false, true, true, true]);
            assert_packed_matches_matvec(&lhs, &w, &mask);
        }
    }

    #[test]
    fn zero_width_product_matches_the_row_kernel() {
        let (lhs, w, mask) = (Matrix::zeros(3, 0), Matrix::zeros(5, 0), LaneMask::full(3));
        let mut out = Matrix::filled(3, 5, f32::NAN);
        matmul_nt_into(&lhs, &w, Some(&mask), &mut out);
        let mut want = Matrix::filled(3, 5, f32::NAN);
        lhs.matmul_nt_masked_into(&w, &mask, &mut want);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&want));
    }

    #[test]
    #[should_panic(expected = "lane mask size mismatch")]
    fn rejects_wrong_mask_length() {
        let (lhs, w) = (Matrix::zeros(2, 3), Matrix::zeros(4, 3));
        matmul_nt_into(&lhs, &w, Some(&LaneMask::full(3)), &mut Matrix::zeros(2, 4));
    }
}
