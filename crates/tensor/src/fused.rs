//! Head-fused products: the kernels for a product whose
//! right factor changes every step — the memory unit's `M` and `L` — and
//! is multiplied against a handful of rows at once (the `R` read heads, a
//! write key, or batch lanes). Each walks the right factor **once** for
//! up to four rows of the left, one generic body per kernel over the
//! crate's `Lanes` type ([`mod@crate::simd`]) — [`matvec_t_heads_into`] at
//! the widest tier the CPU has (sixteen AVX-512 lanes, eight AVX lanes or
//! [`F32x8`](crate::F32x8)), [`row_dots_into`], eight lanes wide by
//! definition, on `Avx` or `F32x8` — and each keeps, for every output
//! element, the IEEE operation sequence of the scalar reference it is
//! pinned to: one rounded multiply then one rounded add per ascending
//! `k`, never an FMA, nothing re-associated. Vector lanes only ever hold
//! **independent outputs**.
//!
//! # [`row_dots_into`]: a transposing row-dot kernel
//!
//! `out[r][i] = other.row(i) · lhs.row(r)` — the shape of
//! [`Matrix::matmul_nt_into`], which [`matmul_nt_into`] here computes for
//! any number of live rows. A row-major `other` has each dot's operands
//! contiguous, which suits a kernel that splits the dot across lanes
//! (re-associating it) and not one that must keep its order. So eight rows
//! of `other` are **transposed 8 × 8 in registers** (`Lanes::load_transposed`):
//! lane `l` of transposed vector `k` is `other[i + l][k]`, the accumulator
//! of `lhs` row `r` holds the eight row sums `out[r][i..i + 8]`, and step
//! `k` is `acc += splat(lhs[r][k]) * t_k`. Accumulators start at `+0.0`,
//! as the row kernel's four-column pass does. With one or two rows of
//! `lhs`, two blocks of eight rows are carried per pass so the add chains
//! still fill the pipeline. The last `K % 8` steps take the same vector
//! step on a column gathered by hand; the last `N % 8` rows of `other`
//! run the row kernel's own scalar expressions
//! ([`matrix::nt_cols_into`](crate::matrix)) — four-column passes, then the
//! `N % 4` columns as `Iterator::sum`, which is where the row kernel (and
//! so this one) yields `-0.0` rather than `+0.0` for a dot whose products
//! are all `-0.0`.
//!
//! The same pass can return `norms[i] = sqrt(Σ_k other[i][k]²)` — content
//! addressing's row norms, which a quantized step can never cache — for
//! one more accumulator per block: the bits of [`Matrix::row_norms_into`]
//! (whose sum starts from `-0.0`; a square is never `-0.0`, so from the
//! first step on the two agree, and an empty row defers to it).
//!
//! # [`matvec_t_heads_into`]: `mᵀ · w_h` for all heads
//!
//! `out[h][j] = Σ_i w[h][i] · m[i][j]` — [`Matrix::matvec_t_into`] per
//! head, here one pass over `m` with register accumulators over blocks of
//! two vectors of columns (more with one or two heads, so that about
//! eight add chains are always in flight), then the reference's loop for
//! the last `K % LANES` columns. The reference skips rows with `w[h][i] == 0.0`; this
//! kernel masks their product to `+0.0` instead. An accumulator that
//! starts at `+0.0` can never hold `-0.0` (a sum is `-0.0` only if both
//! terms are), so adding `+0.0` leaves it unchanged and the result equals
//! the reference's `continue` bit for bit — even when the skipped row
//! holds ±∞ or NaN, whose product with zero the mask discards.

use crate::lane_mask::LaneMask;
use crate::matrix::{nt_cols_into, Matrix};
use crate::simd::{Kernel, Kernel8, Lanes, Lanes8, Tier};

/// Rows of the left factor one pass over the right factor serves.
const GROUP: usize = 4;

/// `out[r][i] = other.row(i) · lhs.row(r)` for the `R` rows `lhs` holds
/// (`R × other.cols()`, row-major; `out` is `R × other.rows()`), and, when
/// `norms` is given, the L2 norm of every row of `other` from the same
/// pass. Same bits as [`Matrix::matmul_nt_into`] and
/// [`Matrix::row_norms_into`] (see the [module docs](self)).
///
/// # Panics
///
/// Panics if `lhs` and `out` do not hold the same whole number of rows or
/// `norms` is not `other.rows()` long.
pub fn row_dots_into(lhs: &[f32], other: &Matrix, out: &mut [f32], norms: Option<&mut [f32]>) {
    let (n, k) = other.shape();
    // An empty product (`k = 0`) still has a row count: `out`'s.
    let rows = lhs.len().checked_div(k).or(out.len().checked_div(n)).unwrap_or(0);
    assert_eq!(lhs.len(), rows * k, "row-dot left factor is not {rows} rows of {k}");
    assert_eq!(out.len(), rows * n, "row-dot output is not {rows} rows of {n}");
    if let Some(norms) = &norms {
        assert_eq!(norms.len(), n, "row_norms output length mismatch");
    }
    dispatch(lhs, None, rows, other, out, norms);
}

/// `lhs · otherᵀ` into `out` over the rows `mask` marks active (every row
/// when `None`); inactive rows of `out` are zeroed. Same contract and
/// same bits as [`Matrix::matmul_nt_masked_into`] (or, unmasked,
/// [`Matrix::matmul_nt_into`]).
///
/// # Panics
///
/// Panics on shape mismatch or if `mask.lanes() != lhs.rows()`.
pub fn matmul_nt_into(
    lhs: &Matrix,
    other: &Matrix,
    mask: Option<&LaneMask>,
    out: &mut Matrix,
) {
    lhs.assert_nt_shapes(other, out);
    if let Some(mask) = mask {
        assert_eq!(mask.lanes(), lhs.rows(), "lane mask size mismatch");
    }
    dispatch(lhs.as_slice(), mask, lhs.rows(), other, out.as_mut_slice(), None);
}

fn dispatch(
    lhs: &[f32],
    mask: Option<&LaneMask>,
    rows: usize,
    other: &Matrix,
    out: &mut [f32],
    norms: Option<&mut [f32]>,
) {
    Tier::detected().run8(RowDots { lhs, mask, rows, other, out, norms });
}

/// The row-dot kernel's arguments, for [`Tier::run8`].
struct RowDots<'a> {
    lhs: &'a [f32],
    mask: Option<&'a LaneMask>,
    rows: usize,
    other: &'a Matrix,
    out: &'a mut [f32],
    norms: Option<&'a mut [f32]>,
}

impl Kernel8 for RowDots<'_> {
    type Output = ();
    #[inline(always)]
    unsafe fn run<V: Lanes8>(self) {
        let RowDots { lhs, mask, rows, other, out, norms } = self;
        // SAFETY: forwarded from the caller.
        unsafe { row_dots::<V>(lhs, mask, rows, other, out, norms) }
    }
}

/// The row-dot kernel over vector type `V`: zero the inactive rows of
/// `out`, then one pass over `other` per group of up to [`GROUP`] active
/// rows of `lhs`; the first pass also takes the norms.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set (see [`Lanes`]).
#[inline(always)]
unsafe fn row_dots<V: Lanes8>(
    lhs: &[f32],
    mask: Option<&LaneMask>,
    rows: usize,
    other: &Matrix,
    out: &mut [f32],
    mut norms: Option<&mut [f32]>,
) {
    let n = other.rows();
    let mut group = [0usize; GROUP];
    let mut len = 0;
    for r in 0..rows {
        if mask.is_some_and(|m| !m.is_active(r)) {
            // Inactive rows are zero (stale scratch must not leak through).
            out[r * n..(r + 1) * n].fill(0.0);
        } else {
            group[len] = r;
            len += 1;
        }
        // One call site per instantiation: each is a full inlined copy
        // of the kernel family.
        if len == GROUP || (len > 0 && r + 1 == rows) {
            let group = &group[..len];
            // SAFETY (both arms): forwarded from the caller.
            match norms.take() {
                Some(norms) => unsafe { group_into::<V, true>(lhs, group, other, out, norms) },
                None => unsafe { group_into::<V, false>(lhs, group, other, out, &mut []) },
            }
            len = 0;
        }
    }
    if let Some(norms) = norms {
        // No live row to share a pass with.
        other.row_norms_into(norms);
    }
}

/// One pass over `other` for the one to four rows of `lhs` in `rows`,
/// the group's size lifted to a constant: one or two rows carry two
/// blocks of `other` per pass, three or four carry one.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set (see [`Lanes`]).
#[inline(always)]
unsafe fn group_into<V: Lanes8, const NORMS: bool>(
    lhs: &[f32],
    rows: &[usize],
    other: &Matrix,
    out: &mut [f32],
    norms: &mut [f32],
) {
    // SAFETY (every arm): forwarded from the caller.
    unsafe {
        match *rows {
            [a] => pass::<V, 1, 2, NORMS>(lhs, [a], other, out, norms),
            [a, b] => pass::<V, 2, 2, NORMS>(lhs, [a, b], other, out, norms),
            [a, b, c] => pass::<V, 3, 1, NORMS>(lhs, [a, b, c], other, out, norms),
            [a, b, c, d] => pass::<V, 4, 1, NORMS>(lhs, [a, b, c, d], other, out, norms),
            _ => unreachable!("a group holds one to four rows"),
        }
    }
}

/// `out[rows[g]][i] = other.row(i) · lhs.row(rows[g])` for every `i`, and
/// `norms[i]` when `NORMS`: `B` blocks of eight rows of `other` per step
/// of the main loop, single blocks once fewer than `B` are left, then the
/// row kernel's expressions for the last `N % 8` rows.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set (see [`Lanes`]).
#[inline(always)]
unsafe fn pass<V: Lanes8, const G: usize, const B: usize, const NORMS: bool>(
    lhs: &[f32],
    rows: [usize; G],
    other: &Matrix,
    out: &mut [f32],
    norms: &mut [f32],
) {
    let (n, k) = other.shape();
    let x: [&[f32]; G] = rows.map(|r| &lhs[r * k..(r + 1) * k]);
    let n8 = n - n % 8;
    let mut i = 0;
    // SAFETY (both loops): forwarded from the caller.
    while i + 8 * B <= n8 {
        unsafe { blocks_into::<V, G, B, NORMS>(x, rows, other, i, out, norms) };
        i += 8 * B;
    }
    while i < n8 {
        unsafe { blocks_into::<V, G, 1, NORMS>(x, rows, other, i, out, norms) };
        i += 8;
    }
    for (x, r) in x.into_iter().zip(rows) {
        nt_cols_into(x, other, n8, &mut out[r * n..(r + 1) * n]);
    }
    if NORMS {
        if k == 0 {
            // An empty `sum` is whatever zero the reference's is.
            return other.row_norms_into(norms);
        }
        for (i, o) in norms.iter_mut().enumerate().skip(n8) {
            *o = other.row(i).iter().map(|v| v * v).sum::<f32>().sqrt();
        }
    }
}

/// The dots of `G` rows with the `8·B` rows of `other` from `i` on (and
/// those rows' norms): whole groups of eight `k` transposed in registers,
/// then the last `K % 8` one gathered column at a time, ascending `k`
/// throughout.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set (see [`Lanes`]).
#[inline(always)]
unsafe fn blocks_into<V: Lanes8, const G: usize, const B: usize, const NORMS: bool>(
    x: [&[f32]; G],
    rows: [usize; G],
    other: &Matrix,
    i: usize,
    out: &mut [f32],
    norms: &mut [f32],
) {
    let (n, k) = other.shape();
    let k8 = k - k % 8;
    // The `8·B` rows, contiguous in the row-major matrix; block `b` starts
    // at row `8·b` of the slab.
    let slab = &other.as_slice()[i * k..(i + 8 * B) * k];
    // SAFETY (every vector op below): forwarded from the caller.
    let mut acc = [[unsafe { V::zero() }; B]; G];
    let mut squares = [unsafe { V::zero() }; B];
    // Plain loops, not `array::map`/`from_fn`: those are calls the AVX
    // entry does not inline, and a closure would not inherit its target
    // feature.
    for k0 in (0..k8).step_by(8) {
        let mut steps = [&[0.0f32; 8]; G];
        for (steps, x) in steps.iter_mut().zip(x) {
            *steps = x[k0..k0 + 8].try_into().expect("eight steps");
        }
        for b in 0..B {
            let t = unsafe { V::load_transposed(&slab[8 * b * k..], k, k0) };
            for (kk, &t) in t.iter().enumerate() {
                for g in 0..G {
                    acc[g][b] = unsafe { V::mul_acc(acc[g][b], V::splat(steps[g][kk]), t) };
                }
                if NORMS {
                    squares[b] = unsafe { V::mul_acc(squares[b], t, t) };
                }
            }
        }
    }
    // The last `K % 8` steps: the same step on a column gathered by hand.
    for kk in k8..k {
        for b in 0..B {
            let mut column = [0.0f32; 8];
            for (l, c) in column.iter_mut().enumerate() {
                *c = slab[(8 * b + l) * k + kk];
            }
            let t = unsafe { V::load(&column) };
            for g in 0..G {
                acc[g][b] = unsafe { V::mul_acc(acc[g][b], V::splat(x[g][kk]), t) };
            }
            if NORMS {
                squares[b] = unsafe { V::mul_acc(squares[b], t, t) };
            }
        }
    }
    for b in 0..B {
        let i = i + 8 * b;
        for g in 0..G {
            unsafe { acc[g][b].store(&mut out[rows[g] * n + i..]) };
        }
        if NORMS {
            unsafe { squares[b].sqrt().store(&mut norms[i..]) };
        }
    }
}

/// `out[h][j] = Σ_i weights[h][i] · m[i][j]` — `mᵀ · w_h` for every row
/// `w_h` of `weights` (`R × m.rows()`) in one pass over `m`; `out` is
/// `R × m.cols()`, row-major. Same bits as [`Matrix::matvec_t_into`] per
/// head, its skip of `w == 0.0` rows included (see the
/// [module docs](self)).
///
/// # Panics
///
/// Panics if `weights.cols() != m.rows()` or `out` is not
/// `weights.rows() · m.cols()` long.
pub fn matvec_t_heads_into(m: &Matrix, weights: &Matrix, out: &mut [f32]) {
    matvec_t_heads_on(Tier::detected(), m, weights, out);
}

/// [`matvec_t_heads_into`] on the given tier — the same bits on every
/// tier.
///
/// # Panics
///
/// As `matvec_t_heads_into`, and if this CPU does not run `tier`.
pub fn matvec_t_heads_on(tier: Tier, m: &Matrix, weights: &Matrix, out: &mut [f32]) {
    assert_eq!(weights.cols(), m.rows(), "matvec_t shape mismatch");
    assert_eq!(out.len(), weights.rows() * m.cols(), "matvec_t output length mismatch");
    tier.run(MatvecTHeads { m, weights, out });
}

/// The transposed mat-vec's arguments, for [`Tier::run`].
struct MatvecTHeads<'a> {
    m: &'a Matrix,
    weights: &'a Matrix,
    out: &'a mut [f32],
}

impl Kernel for MatvecTHeads<'_> {
    type Output = ();
    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        // SAFETY: forwarded from the caller.
        unsafe { matvec_t_heads::<V>(self.m, self.weights, self.out) }
    }
}

/// The transposed mat-vec over vector type `V`, [`GROUP`] heads per pass
/// over `m`. Eight accumulators or so keep the add chains full, so the
/// fewer the heads, the wider the column block each pass carries.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set (see [`Lanes`]).
#[inline(always)]
unsafe fn matvec_t_heads<V: Lanes>(m: &Matrix, weights: &Matrix, out: &mut [f32]) {
    let k = m.cols();
    for h in (0..weights.rows()).step_by(GROUP) {
        let heads = (weights.rows() - h).min(GROUP);
        let out = &mut out[h * k..(h + heads) * k];
        // SAFETY (every arm): forwarded from the caller.
        unsafe {
            match heads {
                1 => heads_into::<V, 1, 8>(m, weights, h, out),
                2 => heads_into::<V, 2, 4>(m, weights, h, out),
                3 => heads_into::<V, 3, 2>(m, weights, h, out),
                _ => heads_into::<V, 4, 2>(m, weights, h, out),
            }
        }
    }
}

/// `out[g] = mᵀ · weights.row(h + g)` for `g < H`: blocks of `C` vectors
/// of columns, then of half that down to one vector, then the
/// reference's loop for the last `K % LANES` columns.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set (see [`Lanes`]).
#[inline(always)]
unsafe fn heads_into<V: Lanes, const H: usize, const C: usize>(
    m: &Matrix,
    weights: &Matrix,
    h: usize,
    out: &mut [f32],
) {
    let k = m.cols();
    let lanes = V::LANES;
    let w: [&[f32]; H] = std::array::from_fn(|g| weights.row(h + g));
    let mut j = 0;
    // SAFETY (every call): forwarded from the caller.
    while j + lanes * C <= k {
        unsafe { columns_into::<V, H, C>(m, w, j, out) };
        j += lanes * C;
    }
    if C > 4 && j + 4 * lanes <= k {
        unsafe { columns_into::<V, H, 4>(m, w, j, out) };
        j += 4 * lanes;
    }
    if C > 2 && j + 2 * lanes <= k {
        unsafe { columns_into::<V, H, 2>(m, w, j, out) };
        j += 2 * lanes;
    }
    if C > 1 && j + lanes <= k {
        unsafe { columns_into::<V, H, 1>(m, w, j, out) };
        j += lanes;
    }
    for (w, out) in w.into_iter().zip(out.chunks_exact_mut(k.max(1))) {
        for (jj, o) in out.iter_mut().enumerate().skip(j) {
            let mut sum = 0.0f32;
            for (i, &wi) in w.iter().enumerate() {
                if wi != 0.0 {
                    sum += wi * m.row(i)[jj];
                }
            }
            *o = sum;
        }
    }
}

/// Columns `j..j + C·LANES` of `mᵀ · w[g]` for every `g`: each row of `m` is
/// loaded once and multiplied into `H·C` accumulators, the products of
/// exact-zero weights masked to `+0.0`.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set (see [`Lanes`]).
#[inline(always)]
unsafe fn columns_into<V: Lanes, const H: usize, const C: usize>(
    m: &Matrix,
    w: [&[f32]; H],
    j: usize,
    out: &mut [f32],
) {
    let k = m.cols();
    // SAFETY (every vector op below): forwarded from the caller.
    let zero = unsafe { V::zero() };
    let mut acc = [[zero; C]; H];
    for i in 0..m.rows() {
        let row = &m.row(i)[j..j + V::LANES * C];
        let mut cols = [zero; C];
        for (c, col) in cols.iter_mut().enumerate() {
            *col = unsafe { V::load(&row[V::LANES * c..]) };
        }
        for (acc, w) in acc.iter_mut().zip(w) {
            let wv = unsafe { V::splat(w[i]) };
            let live = unsafe { wv.ne_mask(zero) };
            for (acc, &col) in acc.iter_mut().zip(&cols) {
                *acc = unsafe { acc.add(wv.mul(col).and(live)) };
            }
        }
    }
    for (g, acc) in acc.into_iter().enumerate() {
        for (c, v) in acc.into_iter().enumerate() {
            unsafe { v.store(&mut out[g * k + j + V::LANES * c..]) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::tiers::{assert_same_bits, hostile_row, LENGTHS};
    use crate::simd::F32x8;

    fn mat(rows: usize, cols: usize, phase: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| ((i * cols + j) as f32 * 0.37 + phase).sin())
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `lhs · otherᵀ` over stale `out` through both bodies — the dispatched
    /// one (`Avx` where the CPU has AVX) and the portable one, which must
    /// agree bit for bit — with and without the norms riding along.
    fn product(lhs: &Matrix, other: &Matrix, mask: Option<&LaneMask>) -> Matrix {
        let mut out = Matrix::filled(lhs.rows(), other.rows(), f32::NAN);
        matmul_nt_into(lhs, other, mask, &mut out);
        for with_norms in [false, true] {
            let mut portable = Matrix::filled(lhs.rows(), other.rows(), f32::NAN);
            let mut norms = vec![f32::NAN; other.rows()];
            let (rows, flat) = (lhs.rows(), portable.as_mut_slice());
            // SAFETY: `F32x8` is baseline code on every target.
            unsafe {
                let norms = with_norms.then_some(&mut norms[..]);
                row_dots::<F32x8>(lhs.as_slice(), mask, rows, other, flat, norms);
            }
            assert_eq!(bits(out.as_slice()), bits(portable.as_slice()), "AVX vs portable body");
            if with_norms {
                let mut want = vec![f32::NAN; other.rows()];
                other.row_norms_into(&mut want);
                assert_eq!(bits(&norms), bits(&want), "portable norms");
            }
        }
        out
    }

    /// The kernel vs the row kernel on every row, and vs `matvec` on the
    /// active ones (`matvec_too`: off where the `-0.0` caveat bites).
    fn assert_matches_reference(lhs: &Matrix, w: &Matrix, mask: &LaneMask, matvec_too: bool) {
        let out = product(lhs, w, Some(mask));
        let mut want = Matrix::filled(lhs.rows(), w.rows(), f32::NAN);
        lhs.matmul_nt_masked_into(w, mask, &mut want);
        let shape = format!("k={} n={} mask={:?}", lhs.cols(), w.rows(), mask.as_bools());
        assert_eq!(bits(out.as_slice()), bits(want.as_slice()), "row kernel, {shape}");
        for i in mask.active_lanes().filter(|_| matvec_too) {
            assert_eq!(bits(out.row(i)), bits(&w.matvec(lhs.row(i))), "matvec row {i}, {shape}");
        }
    }

    #[test]
    fn row_dots_equal_matvec_for_every_small_mask_and_awkward_shape() {
        // N covers every `n % 8` class the blocks split at (below one
        // block, one block, two, and the two-block pass plus a single);
        // K the empty product, one step, every kind of `k % 8` tail and
        // the paper's widths.
        for n in [1usize, 3, 4, 6, 7, 8, 9, 16, 17, 24, 64, 70, 130] {
            for k in [0usize, 1, 3, 5, 8, 17, 64, 290, 528] {
                let w = mat(n, k, 1.1);
                // Wide products: masks that give each group shape once.
                let widths = if k > 17 { vec![1, 2, 3, 4, 9] } else { (1..=9).collect() };
                for b in widths {
                    let lhs = mat(b, k, 0.2);
                    let masks = if k > 17 || b > 5 { 1 } else { 1u32 << b };
                    for m in 0..masks {
                        let m = if masks == 1 { u32::MAX } else { m };
                        let mask = LaneMask::from_fn(b, |i| m >> i & 1 == 1);
                        assert_matches_reference(&lhs, &w, &mask, k > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn row_dots_equal_matvec_for_wider_batches_and_ragged_masks() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for b in 1..=9usize {
            for (n, k) in [(11, 37), (64, 64), (93, 78)] {
                let (lhs, w) = (mat(b, k, 0.7), mat(n, k, 1.9));
                assert_matches_reference(&lhs, &w, &LaneMask::full(b), true);
                for _ in 0..16 {
                    let m = next();
                    let mask = LaneMask::from_fn(b, |i| m >> i & 1 == 1);
                    assert_matches_reference(&lhs, &w, &mask, true);
                }
            }
        }
    }

    #[test]
    fn unmasked_product_is_the_full_mask_product() {
        // One to nine rows: a lone row, every partial group, full groups,
        // and a full group plus a one-row tail.
        for b in 1..=9usize {
            let (lhs, w) = (mat(b, 37, 0.7), mat(11, 37, 1.9));
            let got = product(&lhs, &w, None);
            let want = product(&lhs, &w, Some(&LaneMask::full(b)));
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "b={b}");
            assert_eq!(bits(got.as_slice()), bits(lhs.matmul_nt(&w).as_slice()), "b={b} vs the row kernel");
        }
    }

    #[test]
    fn long_rows_with_a_k_tail_keep_the_row_kernels_bits() {
        for k in [511usize, 512, 513, 1059] {
            let (lhs, w) = (mat(6, k, 0.4), mat(10, k, 2.3));
            let mask = LaneMask::from(vec![true, true, false, true, true, true]);
            assert_matches_reference(&lhs, &w, &mask, true);
        }
    }

    #[test]
    fn zero_width_product_matches_the_row_kernel() {
        let (lhs, w, mask) = (Matrix::zeros(3, 0), Matrix::zeros(5, 0), LaneMask::full(3));
        assert_matches_reference(&lhs, &w, &mask, false);
    }

    #[test]
    fn all_negative_zero_products_split_at_the_remainder_columns() {
        // +x · -0.0 = -0.0 at every k: a column of a block or of a
        // four-column pass (from +0.0) reads +0.0, one of the `N % 4`
        // remainder columns (`sum`, from -0.0) reads -0.0 — the row
        // kernel's split, not `matvec`'s all -0.0.
        for n in [3usize, 6, 11, 18, 35] {
            for k in [5usize, 8, 19] {
                let w = Matrix::filled(n, k, -0.0);
                let lhs = Matrix::filled(3, k, 1.5);
                assert_matches_reference(&lhs, &w, &LaneMask::full(3), false);
                let out = product(&lhs, &w, None);
                for i in 0..3 {
                    for j in 0..n {
                        let want = if j < n - n % 4 { 0.0f32 } else { -0.0 };
                        assert_eq!(out[(i, j)].to_bits(), want.to_bits(), "n={n} k={k} column {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn infinities_take_the_row_kernels_path_to_infinity_or_nan() {
        // Infinities of both signs in both factors, in whole groups of
        // eight steps and in the `K % 8` tail: some sums are ±∞ and some
        // `∞ − ∞ = NaN`. NaNs compare as NaN, the rest `to_bits`.
        for (n, k) in [(8usize, 5usize), (17, 13), (16, 64), (9, 71)] {
            let mut w = mat(n, k, 0.8);
            let mut lhs = mat(3, k, 1.7);
            w[(1, k - 1)] = f32::INFINITY;
            w[(n - 1, 0)] = f32::NEG_INFINITY;
            lhs[(0, k - 1)] = f32::NEG_INFINITY;
            lhs[(2, 0)] = f32::INFINITY;
            let got = product(&lhs, &w, None);
            let want = lhs.matmul_nt(&w);
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                assert!(g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()), "n={n} k={k}");
            }
            assert!(got.as_slice().iter().any(|x| x.is_infinite()), "n={n} k={k}");
        }
    }

    #[test]
    fn flat_row_dots_with_norms_equal_the_product_and_the_norm_pass() {
        // The public entry over flat rows (a lone key is a row of one):
        // dots-only and dots + norms give the same dots, the norms are
        // `row_norms_into`'s, and a zero row's norm is +0.0.
        for n in [1usize, 3, 7, 8, 9, 16, 64, 70, 130] {
            for k in [0usize, 1, 5, 8, 17, 64] {
                let mut other = mat(n, k, 0.9);
                if k > 0 {
                    other.row_mut(n / 2).fill(0.0);
                }
                let mut want_norms = vec![f32::NAN; n];
                other.row_norms_into(&mut want_norms);
                for r in 1..=5usize {
                    let keys = mat(r, k, 2.1);
                    let want = keys.matmul_nt(&other);
                    let mut dots = vec![f32::NAN; r * n];
                    row_dots_into(keys.as_slice(), &other, &mut dots, None);
                    assert_eq!(bits(&dots), bits(want.as_slice()), "dots only, n={n} k={k} r={r}");
                    let (mut dots, mut norms) = (vec![f32::NAN; r * n], vec![f32::NAN; n]);
                    row_dots_into(keys.as_slice(), &other, &mut dots, Some(&mut norms));
                    assert_eq!(bits(&dots), bits(want.as_slice()), "with norms, n={n} k={k} r={r}");
                    assert_eq!(bits(&norms), bits(&want_norms), "norms, n={n} k={k} r={r}");
                }
            }
        }
        // No key at all: the norms still come back.
        let other = mat(9, 5, 0.3);
        let mut norms = vec![f32::NAN; 9];
        row_dots_into(&[], &other, &mut [], Some(&mut norms));
        assert_eq!(bits(&norms), bits(&other.row_norms()));
    }

    #[test]
    #[should_panic(expected = "lane mask size mismatch")]
    fn rejects_wrong_mask_length() {
        let (lhs, w) = (Matrix::zeros(2, 3), Matrix::zeros(4, 3));
        matmul_nt_into(&lhs, &w, Some(&LaneMask::full(3)), &mut Matrix::zeros(2, 4));
    }

    #[test]
    #[should_panic(expected = "row-dot left factor is not 1 rows of 3")]
    fn rejects_a_ragged_left_factor() {
        row_dots_into(&[0.0; 5], &Matrix::zeros(4, 3), &mut [0.0; 4], None);
    }

    /// `mᵀ · w_h` per head through the reference, over stale output.
    fn matvec_t_per_head(m: &Matrix, weights: &Matrix) -> Vec<f32> {
        let mut want = vec![f32::NAN; weights.rows() * m.cols()];
        for (h, out) in want.chunks_exact_mut(m.cols().max(1)).enumerate() {
            m.matvec_t_into(weights.row(h), out);
        }
        want
    }

    /// The fused kernel over stale output, dispatched and on every tier
    /// this CPU runs, checked against each other.
    fn matvec_t_fused(m: &Matrix, weights: &Matrix) -> Vec<f32> {
        let mut got = vec![f32::NAN; weights.rows() * m.cols()];
        matvec_t_heads_into(m, weights, &mut got);
        for tier in Tier::available() {
            let mut body = vec![f32::NAN; got.len()];
            matvec_t_heads_on(tier, m, weights, &mut body);
            assert_eq!(bits(&got), bits(&body), "dispatched vs {tier} body");
        }
        got
    }

    #[test]
    fn fused_matvec_t_equals_the_per_head_reference_on_every_shape() {
        for n in [1usize, 7, 64, 130] {
            // Every width of column block, alone and in each mix: 64
            // (one head), 32 (two), 16, 8, and a scalar tail.
            for k in [1usize, 5, 8, 15, 16, 17, 24, 40, 57, 64, 121] {
                let m = mat(n, k, 0.6);
                for r in 1..=5usize {
                    // Soft weightings with exact zeros sprinkled in, and a
                    // head that reads nothing at all.
                    let weights = Matrix::from_fn(r, n, |h, i| {
                        let x = ((h * 31 + i * 7) as f32 * 0.23).sin();
                        if h == 1 || x.abs() < 0.3 { 0.0 } else { x / n as f32 }
                    });
                    let got = matvec_t_fused(&m, &weights);
                    assert_eq!(bits(&got), bits(&matvec_t_per_head(&m, &weights)), "n={n} k={k} r={r}");
                }
            }
        }
    }

    #[test]
    fn exact_zero_weights_skip_rows_holding_infinities_nans_and_negative_zero() {
        // Row `i` of `m` is poisoned; every head's weight on it is an
        // exact zero of either sign, so — as in the reference's
        // `continue` — it contributes nothing, not `0 · ∞ = NaN`.
        for k in [5usize, 16, 17, 64] {
            for (poison, zero) in [
                (f32::INFINITY, 0.0f32),
                (f32::NEG_INFINITY, -0.0),
                (f32::NAN, 0.0),
                (-0.0, -0.0),
            ] {
                let mut m = mat(9, k, 1.3);
                m.row_mut(4).fill(poison);
                m.row_mut(0).fill(-0.0);
                let mut weights = Matrix::from_fn(3, 9, |h, i| ((h + i) as f32 * 0.4).cos());
                for h in 0..3 {
                    weights[(h, 4)] = zero;
                }
                let got = matvec_t_fused(&m, &weights);
                assert!(got.iter().all(|x| x.is_finite()), "k={k} poison={poison}");
                assert_eq!(bits(&got), bits(&matvec_t_per_head(&m, &weights)), "k={k} {poison}");
            }
        }
        // All-zero weights: every output is +0.0, whatever `m` holds.
        let m = Matrix::filled(6, 19, f32::NAN);
        let got = matvec_t_fused(&m, &Matrix::zeros(2, 6));
        assert_eq!(bits(&got), bits(&[0.0; 38]));
    }

    #[test]
    fn matvec_t_heads_has_the_references_bits_on_every_tier_over_hostile_values() {
        // NaN, ±∞, −0.0, subnormals and the Q16.16 clamp edges in `m` and
        // in the weights, exact zeros of both signs among the weights (the
        // rows the reference skips), every `K % 16`.
        for (seed, &k) in LENGTHS.iter().enumerate() {
            let n = LENGTHS[(seed * 5 + 2) % LENGTHS.len()];
            let seed = seed as u64;
            let m = Matrix::from_vec(n, k, hostile_row(seed, n * k));
            for r in 1..=5usize {
                let mut w = hostile_row(seed + 50 + r as u64, r * n);
                for (i, x) in w.iter_mut().enumerate().filter(|(i, _)| i % 3 == 0) {
                    *x = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
                let weights = Matrix::from_vec(r, n, w);
                let want = bits(&matvec_t_per_head(&m, &weights));
                assert_same_bits(&format!("matvec_t_heads {n}x{k} r={r}"), want, |tier| {
                    let mut out = vec![f32::NAN; r * k];
                    matvec_t_heads_on(tier, &m, &weights, &mut out);
                    bits(&out)
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "matvec_t output length mismatch")]
    fn fused_matvec_t_rejects_a_short_output() {
        matvec_t_heads_into(&Matrix::zeros(4, 3), &Matrix::zeros(2, 4), &mut [0.0; 5]);
    }
}
