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
//! About eight accumulator vectors are live per block, enough independent
//! add chains to hide the add latency: two vectors of outputs per lane
//! for 4 or 3 lanes, four for 2, eight for 1. The walk is one generic
//! body over the crate's `Lanes` type ([`mod@crate::simd`]), run on the
//! widest tier the CPU has: sixteen-lane AVX-512 vectors, where a 64-byte
//! panel row is exactly one register (so a block spans two panels for 4
//! or 3 lanes), eight-lane AVX ones (two per panel row), or the
//! plain-Rust `F32x8`. A lane holds the same output at every width, so
//! the tiers cannot drift apart.
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
use crate::simd::{Kernel, Lanes, Tier, Token};
use std::fmt;

/// Outputs per panel: one 16-wide or two 8-wide vectors, one cache line
/// per panel row.
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
}

impl fmt::Debug for PackedWeights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PackedWeights({}x{})", self.rows, self.cols)
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
        Self { rows, cols, panels, tail }
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
        self.matmul_masked_on(Tier::detected(), lhs, mask, out);
    }

    /// [`PackedWeights::matmul_masked_into`] on the given tier — the same
    /// bits on every tier.
    ///
    /// # Panics
    ///
    /// As `matmul_masked_into`, and if this CPU does not run `tier`.
    pub fn matmul_masked_on(&self, tier: Tier, lhs: &Matrix, mask: &LaneMask, out: &mut Matrix) {
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
        tier.run(Product { weights: self, lhs, mask, out });
    }
}

/// The product's arguments, for [`Tier::run`].
struct Product<'a> {
    weights: &'a PackedWeights,
    lhs: &'a Matrix,
    mask: &'a LaneMask,
    out: &'a mut Matrix,
}

impl Kernel for Product<'_> {
    type Output = ();
    #[inline(always)]
    fn run<V: Lanes>(self, cpu: Token<V>) {
        product(cpu, self.weights, self.lhs, self.mask, self.out)
    }
}

/// The product over vector type `V`: zero the inactive rows, then walk the
/// panels once per group of up to [`GROUP`] active lanes.
#[inline(always)]
fn product<V: Lanes>(
    cpu: Token<V>,
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
            group_into::<V, 4, 2>(cpu, weights, lhs, group, out);
            len = 0;
        }
    }
    let [a, b, c, _] = group;
    match len {
        3 => group_into::<V, 3, 2>(cpu, weights, lhs, [a, b, c], out),
        2 => group_into::<V, 2, 4>(cpu, weights, lhs, [a, b], out),
        1 => group_into::<V, 1, 8>(cpu, weights, lhs, [a], out),
        _ => {}
    }
}

/// `out.row(l) = lhs.row(l) · weightsᵀ` for the `L` rows in `lanes`, `C`
/// vectors of outputs per block — `C · LANES / 16` whole panels — then
/// blocks of half as many vectors while they fit, down to single panels.
#[inline(always)]
fn group_into<V: Lanes, const L: usize, const C: usize>(
    cpu: Token<V>,
    weights: &PackedWeights,
    lhs: &Matrix,
    lanes: [usize; L],
    out: &mut Matrix,
) {
    let k = weights.cols;
    let n4 = weights.rows - weights.rows % 4;
    let x: [&[f32]; L] = lanes.map(|lane| lhs.row(lane));
    let count = n4.div_ceil(PANEL);
    let per_block = C * V::LANES / PANEL;
    let mut p = 0;
    while p + per_block <= count {
        let panels = &weights.panels[p * k..(p + per_block) * k];
        store_block(block::<V, L, C>(cpu, x, panels, k), lanes, p * PANEL, n4, out);
        p += per_block;
    }
    // The narrower blocks keep some add chains in flight on the last
    // panels (four and two vectors are two and one AVX panels, or four
    // and two AVX-512 ones).
    if C > 4 && p + 4 * V::LANES / PANEL <= count {
        let panels = &weights.panels[p * k..(p + 4 * V::LANES / PANEL) * k];
        store_block(block::<V, L, 4>(cpu, x, panels, k), lanes, p * PANEL, n4, out);
        p += 4 * V::LANES / PANEL;
    }
    if C > 2 && p + 2 * V::LANES / PANEL <= count {
        let panels = &weights.panels[p * k..(p + 2 * V::LANES / PANEL) * k];
        store_block(block::<V, L, 2>(cpu, x, panels, k), lanes, p * PANEL, n4, out);
        p += 2 * V::LANES / PANEL;
    }
    while p < count {
        let panels = &weights.panels[p * k..(p + 1) * k];
        // One panel is one vector or two, by width.
        if V::LANES == PANEL {
            store_block(block::<V, L, 1>(cpu, x, panels, k), lanes, p * PANEL, n4, out);
        } else {
            store_block(block::<V, L, 2>(cpu, x, panels, k), lanes, p * PANEL, n4, out);
        }
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

/// The accumulators of `L` lanes × `C` consecutive output vectors
/// (`panels` holds their `C · LANES / 16` panels of `k` rows) after all
/// `k` steps, ascending.
#[inline(always)]
fn block<V: Lanes, const L: usize, const C: usize>(
    cpu: Token<V>,
    x: [&[f32]; L],
    panels: &[PanelRow],
    k: usize,
) -> [[V; C]; L] {
    let x: [&[f32]; L] = x.map(|row| &row[..k]);
    let per_panel = PANEL / V::LANES;
    // Vector `c` reads panel `c / per_panel`, part `c % per_panel`.
    let mut rows = [&panels[..0]; C];
    for (c, rows) in rows.iter_mut().enumerate() {
        *rows = &panels[c / per_panel * k..][..k];
    }
    // Plain loops, no closures: a closure would not inherit the kernel
    // entry's target feature, and its intrinsics would stay calls.
    let mut acc = [[V::zero(cpu); C]; L];
    for kk in 0..k {
        let mut w = [V::zero(cpu); C];
        for (c, w) in w.iter_mut().enumerate() {
            *w = V::load(cpu, &rows[c][kk].0[c % per_panel * V::LANES..]);
        }
        for l in 0..L {
            let xv = V::splat(cpu, x[l][kk]);
            for c in 0..C {
                acc[l][c] = V::mul_acc(acc[l][c], xv, w[c]);
            }
        }
    }
    acc
}

/// Writes a block's accumulators to `out[lanes[l]][col0..]`, dropping the
/// zero-padded lanes of a short last panel (columns from `n4` on).
#[inline(always)]
fn store_block<V: Lanes, const L: usize, const C: usize>(
    acc: [[V; C]; L],
    lanes: [usize; L],
    col0: usize,
    n4: usize,
    out: &mut Matrix,
) {
    for (lane, acc) in lanes.into_iter().zip(acc) {
        let row = out.row_mut(lane);
        for (c, v) in acc.into_iter().enumerate() {
            let col = col0 + c * V::LANES;
            let width = n4.saturating_sub(col).min(V::LANES);
            v.store_first(&mut row[col.min(n4)..][..width]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::tiers::{assert_same_bits, hostile_row, LENGTHS};

    fn mat(rows: usize, cols: usize, phase: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| ((i * cols + j) as f32 * 0.37 + phase).sin())
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The product on every tier this CPU runs, each over stale `out`:
    /// all must agree bit for bit.
    fn packed_product(w: &Matrix, lhs: &Matrix, mask: &LaneMask) -> Matrix {
        let packed = PackedWeights::pack(w);
        let mut dispatched = Matrix::filled(lhs.rows(), w.rows(), f32::NAN);
        packed.matmul_masked_into(lhs, mask, &mut dispatched);
        for tier in Tier::available() {
            let mut out = Matrix::filled(lhs.rows(), w.rows(), f32::NAN);
            packed.matmul_masked_on(tier, lhs, mask, &mut out);
            assert_eq!(bits(out.as_slice()), bits(dispatched.as_slice()), "{tier} vs dispatched");
        }
        dispatched
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
    fn every_tier_has_the_row_kernels_bits_on_hostile_values() {
        // NaN, ±∞, −0.0, subnormals and the Q16.16 clamp edges in both
        // factors, every `N % 16`, K from a single step up, ragged masks.
        for (seed, &n) in LENGTHS.iter().enumerate() {
            let k = LENGTHS[(seed * 7 + 3) % LENGTHS.len()];
            let seed = seed as u64;
            let packed = PackedWeights::pack(&Matrix::from_vec(n, k, hostile_row(seed, n * k)));
            let w = Matrix::from_vec(n, k, hostile_row(seed, n * k));
            for b in 1..=5usize {
                let lhs = Matrix::from_vec(b, k, hostile_row(seed + 100 + b as u64, b * k));
                let mask = LaneMask::from_fn(b, |i| i != 1);
                let mut want = Matrix::filled(b, n, f32::NAN);
                lhs.matmul_nt_masked_into(&w, &mask, &mut want);
                assert_same_bits(&format!("packed {n}x{k} b={b}"), bits(want.as_slice()), |tier| {
                    let mut out = Matrix::filled(b, n, f32::NAN);
                    packed.matmul_masked_on(tier, &lhs, &mask, &mut out);
                    bits(out.as_slice())
                });
            }
        }
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
