//! Panel-packed shared weights: an `N × K` weight matrix stored once in the
//! order its product reads it, and the one product that reads it.
//!
//! The controller gates, the per-shard interface projections and the output
//! projection are *fixed* matrices multiplied every step against a handful
//! of live lane rows. The row-major kernels ([`Matrix::matmul_nt_masked_into`]
//! and the transposing one of [`mod@crate::fused`])
//! must shuffle each weight out of a row-major matrix before they can use
//! it; [`PackedWeights`] pays that shuffle once, at engine build — or never,
//! when the weights are drawn straight into it ([`PackedWeights::from_fn`]).
//!
//! # Layout
//!
//! The first `n4 = N − N % 4` outputs (weight rows) — the columns the row
//! kernel computes four at a time — are cut into **panels** of 16
//! consecutive outputs. A panel is stored `k`-major: its row `k` is
//! the 16 weights `w[j..j + 16][k]`, one 64-byte, cache-line-aligned
//! `PanelRow`. Panel `p`'s row `k` sits at index `p·K + k`, so a
//! product streams each panel front to back. A short last panel
//! (`n4 % 16` of 4, 8 or 12 outputs) is padded with zero weights; its
//! padding lanes are computed and never stored. The last `N % 4` outputs
//! — the row kernel's *remainder columns* — stay row-major.
//!
//! # Operation order, and why the product is bit-exact
//!
//! For a block of lanes and panels the product keeps one accumulator
//! vector per (lane, half panel), starts each from `+0.0`, and for
//! `k = 0, 1, …, K − 1` broadcasts `lhs[lane][k]`, loads the panel row
//! once for all lanes of the group, and does one rounded multiply then one
//! rounded add:
//!
//! ```text
//! acc[lane][j] = acc[lane][j] + lhs[lane][k] * w[j][k]
//! ```
//!
//! Vector lanes hold **independent outputs** `j`; no output's sum is ever
//! split, re-associated or fused (`mul` then `add`, never FMA, and
//! `vmulps`/`vaddps` round each lane exactly as `mulss`/`addss` do). That
//! is, per output element, the very sequence of IEEE operations
//! [`Matrix::matmul_nt_masked_into`] performs — so every output carries
//! the row kernel's bits, which are [`Matrix::matvec`]'s bits (see the
//! caveat below), which is why an engine stepping through packed weights
//! stays bit-identical to the sequential oracles. The remainder columns
//! run the row kernel's own expression verbatim.
//!
//! Eight accumulators are live per block, enough independent add chains
//! to hide the add latency: 4 lanes × 1 panel, 3 × 1, 2 × 2 or 1 × 4
//! (two 8-wide vectors per panel). On `x86_64` the vectors are AVX
//! `__m256` when the CPU has AVX — detected once, when the weights are
//! packed — and otherwise, and on every other target, the same panel walk
//! runs over the portable [`F32x8`] (two SSE2 halves on `x86_64`). Both
//! bodies are one generic function, so they cannot drift apart.
//!
//! # The `-0.0` caveat of the remainder columns
//!
//! A panel column starts from `+0.0`, as the row kernel's four-column
//! pass does; a remainder column is `Iterator::sum`, which starts from
//! `-0.0`, as [`Matrix::matvec`] does for *every* column. The two differ
//! only when every product of a dot is `-0.0` (or `K = 0`): a panel
//! column then reads `+0.0`, a remainder column `-0.0`. The row kernel
//! has exactly this split at exactly these columns, which is why the
//! remainder stays row-major rather than being folded into a panel.

use crate::lane_mask::LaneMask;
use crate::matrix::Matrix;
use crate::simd::{avx_detected, F32x8, Lanes};
use std::fmt;

/// Outputs per panel: two 8-wide vectors, one cache line per panel row.
const PANEL: usize = 16;

/// Lanes per group: a panel row is loaded once for this many lanes.
const GROUP: usize = 4;

/// One `k` of one panel: the weights of 16 consecutive outputs.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct PanelRow([f32; PANEL]);

/// An `N × K` weight matrix in panel-packed form (see the
/// [module docs](self)), multiplied against lane rows by
/// [`PackedWeights::matmul_masked_into`].
///
/// # Example
///
/// ```
/// use hima_tensor::{LaneMask, Matrix, PackedWeights};
///
/// let w = Matrix::from_fn(6, 3, |j, k| (j * 3 + k) as f32);
/// let packed = PackedWeights::pack(&w);
/// let x = Matrix::from_rows(&[&[1.0, 0.5, -1.0][..], &[0.0, 2.0, 1.0][..]]);
/// let mut out = Matrix::zeros(2, 6);
/// packed.matmul_masked_into(&x, &LaneMask::full(2), &mut out);
/// assert_eq!(out.row(1), &w.matvec(x.row(1))[..]);
/// ```
#[derive(Clone)]
pub struct PackedWeights {
    rows: usize,
    cols: usize,
    /// `⌈n4 / 16⌉` panels of `cols` rows each, panel-major.
    panels: Vec<PanelRow>,
    /// The `rows % 4` remainder outputs, row-major (`rows % 4 × cols`).
    tail: Vec<f32>,
    /// Whether the product runs the AVX body (detected at pack time).
    avx: bool,
}

impl fmt::Debug for PackedWeights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PackedWeights({}x{}, avx: {})", self.rows, self.cols, self.avx)
    }
}

impl PackedWeights {
    /// Packs `weights` (`N × K`, one output per row — the right factor of
    /// a `matmul_nt`).
    pub fn pack(weights: &Matrix) -> Self {
        Self::from_fn(weights.rows(), weights.cols(), |j, k| weights[(j, k)])
    }

    /// Packs the `rows × cols` matrix whose element `(j, k)` is `f(j, k)`,
    /// calling `f` once per element in row-major order (as
    /// [`Matrix::from_fn`] does) — weights drawn from a generator go
    /// straight into their panels, and no row-major copy ever exists.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let n4 = rows - rows % 4;
        let mut panels = vec![PanelRow([0.0; PANEL]); n4.div_ceil(PANEL) * cols];
        let mut tail = Vec::with_capacity((rows - n4) * cols);
        for j in 0..rows {
            for k in 0..cols {
                let w = f(j, k);
                if j < n4 {
                    panels[j / PANEL * cols + k].0[j % PANEL] = w;
                } else {
                    tail.push(w);
                }
            }
        }
        Self { rows, cols, panels, tail, avx: avx_detected() }
    }

    /// `lhs · selfᵀ` into `out` over the rows `mask` marks active;
    /// inactive rows of `out` are zeroed. Same contract and same bits as
    /// [`Matrix::matmul_nt_masked_into`] against the source matrix.
    ///
    /// # Panics
    ///
    /// Panics if `lhs` is not `B × K`, `out` is not `B × N` or
    /// `mask.lanes() != B`.
    pub fn matmul_masked_into(&self, lhs: &Matrix, mask: &LaneMask, out: &mut Matrix) {
        assert_eq!(
            lhs.cols(),
            self.cols,
            "packed product shape mismatch: {}x{} vs {}x{}ᵀ",
            lhs.rows(),
            lhs.cols(),
            self.rows,
            self.cols
        );
        assert_eq!(out.shape(), (lhs.rows(), self.rows), "packed product output shape mismatch");
        assert_eq!(mask.lanes(), lhs.rows(), "lane mask size mismatch");
        #[cfg(target_arch = "x86_64")]
        if self.avx {
            // SAFETY: `avx` is only ever set from
            // `is_x86_feature_detected!("avx")`, so this CPU runs AVX.
            return unsafe { product_avx(self, lhs, mask, out) };
        }
        // SAFETY: `F32x8` is baseline code on every target.
        unsafe { product::<F32x8>(self, lhs, mask, out) }
    }
}

/// The panel walk over AVX vectors.
///
/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn product_avx(weights: &PackedWeights, lhs: &Matrix, mask: &LaneMask, out: &mut Matrix) {
    // SAFETY: the caller guarantees AVX, which is all `Avx` needs.
    unsafe { product::<crate::simd::Avx>(weights, lhs, mask, out) }
}

/// The product over vector type `V`: zero the inactive rows, then walk the
/// panels once per group of up to [`GROUP`] active lanes.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set (see [`Lanes`]).
#[inline(always)]
unsafe fn product<V: Lanes>(
    weights: &PackedWeights,
    lhs: &Matrix,
    mask: &LaneMask,
    out: &mut Matrix,
) {
    let mut group = [0usize; GROUP];
    let mut len = 0;
    for i in 0..lhs.rows() {
        if !mask.is_active(i) {
            // Inactive rows are zero (stale scratch must not leak through).
            out.row_mut(i).fill(0.0);
            continue;
        }
        group[len] = i;
        len += 1;
        if len == GROUP {
            // SAFETY (all four arms): forwarded from the caller.
            unsafe { group_into::<V, 4, 1>(weights, lhs, group, out) };
            len = 0;
        }
    }
    let [a, b, c, _] = group;
    match len {
        3 => unsafe { group_into::<V, 3, 1>(weights, lhs, [a, b, c], out) },
        2 => unsafe { group_into::<V, 2, 2>(weights, lhs, [a, b], out) },
        1 => unsafe { group_into::<V, 1, 4>(weights, lhs, [a], out) },
        _ => {}
    }
}

/// `out.row(l) = lhs.row(l) · weightsᵀ` for the `L` rows in `lanes`, `P`
/// panels per block (single panels once fewer than `P` are left).
///
/// # Safety
///
/// The CPU must support `V`'s instruction set (see [`Lanes`]).
#[inline(always)]
unsafe fn group_into<V: Lanes, const L: usize, const P: usize>(
    weights: &PackedWeights,
    lhs: &Matrix,
    lanes: [usize; L],
    out: &mut Matrix,
) {
    let k = weights.cols;
    let n4 = weights.rows - weights.rows % 4;
    let x: [&[f32]; L] = lanes.map(|lane| lhs.row(lane));
    let count = n4.div_ceil(PANEL);
    let mut p = 0;
    // SAFETY (both loops): forwarded from the caller.
    while p + P <= count {
        let panels = &weights.panels[p * k..(p + P) * k];
        unsafe { store_block(block::<V, L, P>(x, panels, k), lanes, p * PANEL, n4, out) };
        p += P;
    }
    while p < count {
        let panels = &weights.panels[p * k..(p + 1) * k];
        unsafe { store_block(block::<V, L, 1>(x, panels, k), lanes, p * PANEL, n4, out) };
        p += 1;
    }
    for (&lane, x) in lanes.iter().zip(x) {
        for t in 0..weights.rows - n4 {
            let w = &weights.tail[t * k..(t + 1) * k];
            // The row kernel's remainder-column expression, verbatim.
            out[(lane, n4 + t)] = x.iter().zip(w).map(|(a, b)| a * b).sum();
        }
    }
}

/// The accumulators of `L` lanes × `P` consecutive panels (`panels` holds
/// their `P·k` rows) after all `k` steps, ascending.
///
/// # Safety
///
/// The CPU must support `V`'s instruction set (see [`Lanes`]).
#[inline(always)]
unsafe fn block<V: Lanes, const L: usize, const P: usize>(
    x: [&[f32]; L],
    panels: &[PanelRow],
    k: usize,
) -> [[[V; 2]; P]; L] {
    let x: [&[f32]; L] = x.map(|row| &row[..k]);
    let panels: [&[PanelRow]; P] = std::array::from_fn(|p| &panels[p * k..(p + 1) * k]);
    // SAFETY (every vector op below): forwarded from the caller.
    let mut acc = [[[unsafe { V::zero() }; 2]; P]; L];
    for kk in 0..k {
        let w: [[V; 2]; P] = std::array::from_fn(|p| {
            let row = &panels[p][kk].0;
            unsafe { [V::load(&row[..8]), V::load(&row[8..])] }
        });
        for l in 0..L {
            let xv = unsafe { V::splat(x[l][kk]) };
            for p in 0..P {
                for h in 0..2 {
                    acc[l][p][h] = unsafe { V::mul_acc(acc[l][p][h], xv, w[p][h]) };
                }
            }
        }
    }
    acc
}

/// Writes a block's accumulators to `out[lanes[l]][col0..]`, dropping the
/// zero-padded lanes of a short last panel (columns from `n4` on).
///
/// # Safety
///
/// The CPU must support `V`'s instruction set (see [`Lanes`]).
#[inline(always)]
unsafe fn store_block<V: Lanes, const L: usize, const P: usize>(
    acc: [[[V; 2]; P]; L],
    lanes: [usize; L],
    col0: usize,
    n4: usize,
    out: &mut Matrix,
) {
    for (lane, acc) in lanes.into_iter().zip(acc) {
        let row = out.row_mut(lane);
        for (h, v) in acc.into_iter().flatten().enumerate() {
            let col = col0 + h * 8;
            let width = n4.saturating_sub(col).min(8);
            // SAFETY: forwarded from the caller.
            row[col.min(n4)..][..width].copy_from_slice(&unsafe { v.to_array() }[..width]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, phase: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| ((i * cols + j) as f32 * 0.37 + phase).sin())
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Both bodies over stale `out`: the dispatched one (AVX where the
    /// CPU has it) and the portable one, which must agree bit for bit.
    fn packed_product(w: &Matrix, lhs: &Matrix, mask: &LaneMask) -> Matrix {
        let packed = PackedWeights::pack(w);
        let mut out = Matrix::filled(lhs.rows(), w.rows(), f32::NAN);
        packed.matmul_masked_into(lhs, mask, &mut out);
        let mut portable = Matrix::filled(lhs.rows(), w.rows(), f32::NAN);
        // SAFETY: `F32x8` is baseline code on every target.
        unsafe { product::<F32x8>(&packed, lhs, mask, &mut portable) };
        assert_eq!(bits(out.as_slice()), bits(portable.as_slice()), "AVX vs portable body");
        out
    }

    /// Packed output vs the row kernel on every row, and vs `matvec` on
    /// the active ones (`matvec_too`: off where the `-0.0` caveat bites).
    fn assert_matches_reference(w: &Matrix, lhs: &Matrix, mask: &LaneMask, matvec_too: bool) {
        let out = packed_product(w, lhs, mask);
        let mut want = Matrix::filled(lhs.rows(), w.rows(), f32::NAN);
        lhs.matmul_nt_masked_into(w, mask, &mut want);
        let shape = format!("k={} n={} mask={:?}", lhs.cols(), w.rows(), mask.as_bools());
        assert_eq!(bits(out.as_slice()), bits(want.as_slice()), "row kernel, {shape}");
        for i in mask.active_lanes().filter(|_| matvec_too) {
            assert_eq!(bits(out.row(i)), bits(&w.matvec(lhs.row(i))), "matvec row {i}, {shape}");
        }
    }

    #[test]
    fn packed_equals_matvec_for_every_small_mask_and_awkward_shape() {
        // N covers every `n % 4` and `n % 16`, below one panel (1..=3
        // have no panel at all) and across a panel edge; K straddles the
        // empty product, one step and the paper's widths.
        let ns = (1usize..=20).chain([30, 31, 32, 33, 47]);
        for n in ns {
            for k in [0usize, 1, 3, 16, 270, 1100] {
                let w = mat(n, k, 1.1);
                // Wide products: masks that give each block shape once.
                let widths = if k > 16 { vec![1, 2, 3, 4, 9] } else { (1..=9).collect() };
                for b in widths {
                    let lhs = mat(b, k, 0.2);
                    let masks = if k > 16 || b > 5 { 1 } else { 1u32 << b };
                    for m in 0..masks {
                        let m = if masks == 1 { u32::MAX } else { m };
                        let mask = LaneMask::from_fn(b, |i| m >> i & 1 == 1);
                        assert_matches_reference(&w, &lhs, &mask, k > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn packed_equals_matvec_under_ragged_masks_up_to_nine_lanes() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for b in 1..=9usize {
            for (n, k) in [(14, 96), (93, 78), (270, 37)] {
                let (w, lhs) = (mat(n, k, 1.9), mat(b, k, 0.7));
                for _ in 0..24 {
                    let m = next();
                    let mask = LaneMask::from_fn(b, |i| m >> i & 1 == 1);
                    assert_matches_reference(&w, &lhs, &mask, true);
                }
            }
        }
    }

    #[test]
    fn all_negative_zero_products_split_at_the_remainder_columns() {
        // +x · -0.0 = -0.0 at every k: a panel column (from +0.0) reads
        // +0.0, a remainder column (`sum`, from -0.0) reads -0.0 — the
        // row kernel's split, not `matvec`'s all -0.0.
        for n in [3usize, 6, 18, 35] {
            let w = Matrix::filled(n, 5, -0.0);
            let lhs = Matrix::filled(3, 5, 1.5);
            let out = packed_product(&w, &lhs, &LaneMask::full(3));
            assert_matches_reference(&w, &lhs, &LaneMask::full(3), false);
            for i in 0..3 {
                for j in 0..n {
                    let want = if j < n - n % 4 { 0.0f32 } else { -0.0 };
                    assert_eq!(out[(i, j)].to_bits(), want.to_bits(), "n={n} column {j}");
                }
            }
        }
    }

    #[test]
    fn inactive_rows_are_zeroed_over_stale_output() {
        let (w, lhs) = (mat(21, 9, 0.4), mat(4, 9, 2.3));
        let out = packed_product(&w, &lhs, &LaneMask::from(vec![false, true, false, false]));
        for i in [0, 2, 3] {
            assert_eq!(bits(out.row(i)), bits(&[0.0; 21]), "row {i}");
        }
        assert_eq!(bits(out.row(1)), bits(&w.matvec(lhs.row(1))));
    }

    #[test]
    #[should_panic(expected = "lane mask size mismatch")]
    fn rejects_wrong_mask_length() {
        let packed = PackedWeights::pack(&Matrix::zeros(4, 3));
        packed.matmul_masked_into(&Matrix::zeros(2, 3), &LaneMask::full(3), &mut Matrix::zeros(2, 4));
    }

    #[test]
    #[should_panic(expected = "packed product shape mismatch")]
    fn rejects_wrong_input_width() {
        let packed = PackedWeights::pack(&Matrix::zeros(4, 3));
        packed.matmul_masked_into(&Matrix::zeros(2, 5), &LaneMask::full(2), &mut Matrix::zeros(2, 4));
    }
}
