//! Temporal linkage — the HR kernels of Fig. 2 (linkage, precedence,
//! forward/backward).
//!
//! The linkage matrix `L ∈ [0,1]^{N×N}` tracks the order in which slots were
//! written: `L[i,j]` is the degree to which slot `i` was written right after
//! slot `j`. Updates follow Graves et al. 2016:
//!
//! ```text
//! L[i,j] ← (1 − w_w[i] − w_w[j]) · L[i,j] + w_w[i] · p[j]   (i ≠ j)
//! L[i,i] = 0
//! p ← (1 − Σ_i w_w[i]) · p + w_w
//! ```
//!
//! Forward/backward read weightings are `f^r = L w_r` and `b^r = Lᵀ w_r`.
//! Invariants: zero diagonal and every row/column sum ≤ 1.
//!
//! Two forms of each kernel live here. [`TemporalLinkage::update_linkage`],
//! [`TemporalLinkage::forward_into`] and [`TemporalLinkage::backward_into`]
//! are the plain one-head-at-a-time definitions — the reference the tests
//! compare against. The memory unit steps through
//! [`TemporalLinkage::update_linkage_with`] (one branch-free row body,
//! [`hima_tensor::history::linkage_update`]) and
//! the head-fused `TemporalLinkage::forward_heads_into` /
//! `TemporalLinkage::backward_heads_into`, which take all `R` previous
//! read weightings as the rows of one `R × N` matrix so `L` is walked
//! **once per product for all heads**, as HiMA's tiles do:
//!
//! * `F = W_r · Lᵀ` is one [`hima_tensor::fused::matmul_nt_into`], the
//!   transposing row-dot kernel — eight rows of `L` per register,
//!   one accumulator per head — every `F[h, i]` still
//!   one rounded multiply then one rounded add per ascending `k`, so the
//!   bits are [`Matrix::matmul_nt_into`]'s, which are `forward_into`'s
//!   (`matvec`'s sum starts from `-0.0` and the kernel's from `+0.0`; they
//!   part only on a dot whose products are all `-0.0`, which weightings
//!   and a non-negative `L` cannot produce short of a `-0.0` weighting,
//!   and the read merge erases the difference then).
//! * `B = W_r · L` is one [`hima_tensor::fused::matvec_t_heads_into`],
//!   pinned to [`Matrix::matvec_t_into`] — `backward_into` —
//!   per head: ascending rows of `L`, and the reference's skip of slots
//!   with `w_r[i] == 0.0` kept as a mask on the product (an accumulator
//!   that starts at `+0.0` never holds `-0.0`, so adding the masked `+0.0`
//!   is the skip, bit for bit).

use crate::profile::{KernelId, KernelProfile, Laps};
use hima_tensor::{fused, history, Matrix, QFormat};

/// Temporal linkage state: the `N × N` linkage matrix and the precedence
/// vector.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalLinkage {
    linkage: Matrix,
    precedence: Vec<f32>,
}

impl TemporalLinkage {
    /// Fresh linkage state for `n` memory slots (all zeros).
    pub fn new(n: usize) -> Self {
        Self { linkage: Matrix::zeros(n, n), precedence: vec![0.0; n] }
    }

    /// Number of memory slots tracked.
    pub fn len(&self) -> usize {
        self.precedence.len()
    }

    /// Whether this tracks zero slots.
    pub fn is_empty(&self) -> bool {
        self.precedence.is_empty()
    }

    /// The linkage matrix `L`.
    pub fn matrix(&self) -> &Matrix {
        &self.linkage
    }

    /// The precedence vector `p`.
    pub fn precedence(&self) -> &[f32] {
        &self.precedence
    }

    /// Linkage state from decoded buffers (the
    /// [`LaneState`](crate::LaneState) codec).
    ///
    /// # Panics
    ///
    /// Panics if `linkage` is not `n × n` for `n = precedence.len()`.
    pub(crate) fn from_parts(linkage: Matrix, precedence: Vec<f32>) -> Self {
        assert_eq!(linkage.shape(), (precedence.len(), precedence.len()), "linkage shape mismatch");
        Self { linkage, precedence }
    }

    /// The linkage matrix and the precedence vector as writable buffers
    /// (a lane splice copies into them).
    pub(crate) fn buffers_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (self.linkage.as_mut_slice(), &mut self.precedence)
    }

    /// Applies one write weighting: updates `L` from the *previous*
    /// precedence, then updates `p`.
    ///
    /// # Panics
    ///
    /// Panics if `write_weighting.len() != len()`.
    pub fn update(&mut self, write_weighting: &[f32]) {
        self.update_linkage(write_weighting);
        self.update_precedence(write_weighting);
    }

    /// Updates only the linkage matrix from the *previous* precedence (the
    /// HR.(1) kernel). Call [`TemporalLinkage::update_precedence`]
    /// afterwards to complete the step.
    ///
    /// # Panics
    ///
    /// Panics if `write_weighting.len() != len()`.
    pub fn update_linkage(&mut self, write_weighting: &[f32]) {
        let n = self.len();
        assert_eq!(write_weighting.len(), n, "write weighting length mismatch");

        for i in 0..n {
            let wi = write_weighting[i];
            let row = self.linkage.row_mut(i);
            for (j, l) in row.iter_mut().enumerate() {
                if i == j {
                    *l = 0.0;
                } else {
                    *l = (1.0 - wi - write_weighting[j]) * *l + wi * self.precedence[j];
                }
            }
        }
    }

    /// The memory unit's form of [`TemporalLinkage::update_linkage`]:
    /// [`hima_tensor::history::linkage_update`], which computes each row
    /// branch-free, at the widest vector width the CPU has (sixteen
    /// AVX-512 lanes, eight AVX or plain-Rust lanes), and zeroes its diagonal
    /// entry afterwards, instead of testing `i == j` per element. The
    /// per-element expression `(1 − w_w[i] − w_w[j]) · L[i,j] + w_w[i] · p[j]`
    /// is element-wise (no reduction) and keeps the reference's operation
    /// order, so the matrix is bit-identical to `update_linkage`'s.
    ///
    /// # Panics
    ///
    /// Panics if `write_weighting.len() != len()`.
    pub fn update_linkage_with(&mut self, write_weighting: &[f32]) {
        assert_eq!(write_weighting.len(), self.len(), "write weighting length mismatch");
        history::linkage_update(&mut self.linkage, &self.precedence, write_weighting);
    }

    /// Updates only the precedence vector (the HR.(2) kernel). Must run
    /// after [`TemporalLinkage::update_linkage`] within a time step.
    ///
    /// # Panics
    ///
    /// Panics if `write_weighting.len() != len()`.
    pub fn update_precedence(&mut self, write_weighting: &[f32]) {
        assert_eq!(write_weighting.len(), self.len(), "write weighting length mismatch");
        let write_sum: f32 = write_weighting.iter().sum();
        for (p, &w) in self.precedence.iter_mut().zip(write_weighting) {
            *p = (1.0 - write_sum) * *p + w;
        }
    }

    /// Forward weighting `f = L · w_r`, written into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `read_weighting.len() != len()` or `out.len() != len()`.
    pub fn forward_into(&self, read_weighting: &[f32], out: &mut [f32]) {
        self.linkage.matvec_into(read_weighting, out);
    }

    /// Forward weightings of all heads at once: row `h` of `out` is
    /// `L · read_weightings.row(h)` — one `W_r · Lᵀ` product, so `L` is
    /// walked once for every four heads. Each row carries the bits of
    /// [`TemporalLinkage::forward_into`] (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if `read_weightings` or `out` is not `R × len()`.
    pub(crate) fn forward_heads_into(&self, read_weightings: &Matrix, out: &mut Matrix) {
        fused::matmul_nt_into(read_weightings, &self.linkage, None, out);
    }

    /// Backward weighting `b = Lᵀ · w_r`, written into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `read_weighting.len() != len()` or `out.len() != len()`.
    pub fn backward_into(&self, read_weighting: &[f32], out: &mut [f32]) {
        self.linkage.matvec_t_into(read_weighting, out);
    }

    /// Backward weightings of all heads: row `h` of `out` is
    /// `Lᵀ · read_weightings.row(h)`, from one pass over `L`
    /// ([`hima_tensor::fused::matvec_t_heads_into`]). Each row carries the
    /// bits of [`TemporalLinkage::backward_into`], its skip of
    /// `w == 0.0` slots included (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if `read_weightings` or `out` is not `R × len()`.
    pub(crate) fn backward_heads_into(&self, read_weightings: &Matrix, out: &mut Matrix) {
        assert_eq!(out.shape(), read_weightings.shape(), "backward output shape mismatch");
        fused::matvec_t_heads_into(&self.linkage, read_weightings, out.as_mut_slice());
    }

    /// Resets linkage and precedence to zero **in place** — the
    /// steady-state form of replacing the state with
    /// [`TemporalLinkage::new`].
    pub fn clear(&mut self) {
        self.linkage.as_mut_slice().fill(0.0);
        self.precedence.fill(0.0);
    }

    /// Rounds every linkage entry and precedence element to `format` in
    /// place (the quantized datapath's rounding pass between time steps).
    pub fn quantize_state(&mut self, format: QFormat) {
        self.quantize_state_laps(format, &mut KernelProfile::disabled().laps());
    }

    /// [`TemporalLinkage::quantize_state`] inside a lap split: each
    /// rounding pass is charged — as time, not as a call — to the kernel
    /// that stores that state.
    pub(crate) fn quantize_state_laps(&mut self, format: QFormat, laps: &mut Laps<'_>) {
        format.quantize_slice_inplace(self.linkage.as_mut_slice());
        laps.lap(KernelId::Linkage, 0);
        format.quantize_slice_inplace(&mut self.precedence);
        laps.lap(KernelId::Precedence, 0);
    }

    /// Checks the structural invariants: zero diagonal, entries in `[0,1]`,
    /// row and column sums ≤ `1 + tol`.
    pub fn check_invariants(&self, tol: f32) -> bool {
        let n = self.len();
        for i in 0..n {
            if self.linkage[(i, i)] != 0.0 {
                return false;
            }
        }
        let in_range = self
            .linkage
            .as_slice()
            .iter()
            .all(|&x| x >= -tol && x <= 1.0 + tol);
        if !in_range {
            return false;
        }
        for i in 0..n {
            let row_sum: f32 = self.linkage.row(i).iter().sum();
            if row_sum > 1.0 + tol {
                return false;
            }
        }
        for j in 0..n {
            let col_sum: f32 = (0..n).map(|i| self.linkage[(i, j)]).sum();
            if col_sum > 1.0 + tol {
                return false;
            }
        }
        self.precedence.iter().all(|&p| p >= -tol && p <= 1.0 + tol)
    }
}

/// Merges backward/content/forward weightings through a head's read modes —
/// the RM kernel: `w_r = π_1 b + π_2 c + π_3 f`, written into `out`.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn merge_read_weighting_into(
    backward: &[f32],
    content: &[f32],
    forward: &[f32],
    modes: [f32; 3],
    out: &mut [f32],
) {
    assert_eq!(backward.len(), content.len(), "weighting length mismatch");
    assert_eq!(backward.len(), forward.len(), "weighting length mismatch");
    assert_eq!(out.len(), backward.len(), "read merge output length mismatch");
    for (((o, &b), &c), &f) in out.iter_mut().zip(backward).zip(content).zip(forward) {
        *o = modes[0] * b + modes[1] * c + modes[2] * f;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hard (one-hot) write at `slot`.
    fn one_hot(n: usize, slot: usize) -> Vec<f32> {
        let mut w = vec![0.0; n];
        w[slot] = 1.0;
        w
    }

    #[test]
    fn fresh_state_is_zero() {
        let l = TemporalLinkage::new(4);
        assert_eq!(l.matrix().sum(), 0.0);
        assert_eq!(l.precedence(), &[0.0; 4]);
        assert!(l.check_invariants(1e-6));
    }

    #[test]
    fn sequential_hard_writes_chain_linkage() {
        let mut l = TemporalLinkage::new(4);
        l.update(&one_hot(4, 0));
        l.update(&one_hot(4, 1));
        l.update(&one_hot(4, 2));
        // Slot 1 was written right after slot 0; slot 2 right after 1.
        assert!((l.matrix()[(1, 0)] - 1.0).abs() < 1e-6);
        assert!((l.matrix()[(2, 1)] - 1.0).abs() < 1e-6);
        assert_eq!(l.matrix()[(0, 1)], 0.0);
        assert!(l.check_invariants(1e-6));
    }

    #[test]
    fn forward_follows_write_order() {
        let mut l = TemporalLinkage::new(4);
        for slot in [0, 1, 2] {
            l.update(&one_hot(4, slot));
        }
        let mut out = [f32::NAN; 4];
        // Reading slot 0, the forward weighting points at slot 1.
        l.forward_into(&one_hot(4, 0), &mut out);
        assert!((out[1] - 1.0).abs() < 1e-6);
        // And backward from slot 1 points back to slot 0.
        l.backward_into(&one_hot(4, 1), &mut out);
        assert!((out[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn precedence_tracks_last_write() {
        let mut l = TemporalLinkage::new(3);
        l.update(&one_hot(3, 2));
        assert!((l.precedence()[2] - 1.0).abs() < 1e-6);
        l.update(&one_hot(3, 0));
        assert!((l.precedence()[0] - 1.0).abs() < 1e-6);
        assert!(l.precedence()[2].abs() < 1e-6);
    }

    #[test]
    fn soft_writes_preserve_invariants() {
        let mut l = TemporalLinkage::new(8);
        let weights: Vec<Vec<f32>> = (0..20)
            .map(|t| {
                let mut w: Vec<f32> = (0..8).map(|i| (((t * 13 + i * 7) % 11) as f32) / 30.0).collect();
                let s: f32 = w.iter().sum();
                if s > 1.0 {
                    for x in &mut w {
                        *x /= s;
                    }
                }
                w
            })
            .collect();
        for w in &weights {
            l.update(w);
            assert!(l.check_invariants(1e-4), "invariants violated after update");
        }
    }

    #[test]
    fn diagonal_always_zero() {
        let mut l = TemporalLinkage::new(5);
        for t in 0..10 {
            let w: Vec<f32> = (0..5).map(|i| if (t + i) % 3 == 0 { 0.3 } else { 0.0 }).collect();
            l.update(&w);
        }
        for i in 0..5 {
            assert_eq!(l.matrix()[(i, i)], 0.0);
        }
    }

    #[test]
    fn no_write_is_identity_on_linkage() {
        let mut l = TemporalLinkage::new(3);
        l.update(&one_hot(3, 0));
        l.update(&one_hot(3, 1));
        let before = l.matrix().clone();
        l.update(&[0.0, 0.0, 0.0]);
        assert_eq!(l.matrix(), &before);
    }

    #[test]
    fn read_merge_modes() {
        let b = [1.0, 0.0];
        let c = [0.0, 1.0];
        let f = [0.5, 0.5];
        let merged = |modes| {
            let mut out = [f32::NAN; 2];
            merge_read_weighting_into(&b, &c, &f, modes, &mut out);
            out
        };
        assert_eq!(merged([1.0, 0.0, 0.0]), [1.0, 0.0]);
        assert_eq!(merged([0.0, 1.0, 0.0]), [0.0, 1.0]);
        assert_eq!(merged([0.0, 0.0, 1.0]), [0.5, 0.5]);
        assert_eq!(merged([0.25, 0.25, 0.5]), [0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "write weighting length mismatch")]
    fn update_validates_length() {
        TemporalLinkage::new(3).update(&[0.1, 0.2]);
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Deterministic pseudo-random values in `[0, 1)`.
    fn xorshift(seed: u64) -> impl FnMut() -> f32 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 24) as f32
        }
    }

    /// A random sub-normalized write weighting.
    fn soft_write(n: usize, next: &mut impl FnMut() -> f32) -> Vec<f32> {
        let mut w: Vec<f32> = (0..n).map(|_| next()).collect();
        let s: f32 = w.iter().sum();
        if s > 1.0 {
            for x in &mut w {
                *x /= s;
            }
        }
        w
    }

    #[test]
    fn blocked_linkage_update_is_bit_identical_to_scalar() {
        // Element-wise kernel, no reductions: the branch-free row update
        // over blocks of eight must reproduce the reference's branchy
        // scalar loop bit for bit, including at non-multiple-of-8 sizes,
        // and so must the transposed mat-vec behind the backward
        // weightings.
        for n in [1usize, 7, 8, 9, 16, 23, 128] {
            let mut reference = TemporalLinkage::new(n);
            let mut a = TemporalLinkage::new(n);
            for t in 0..6 {
                let mut w: Vec<f32> =
                    (0..n).map(|i| (((t * 13 + i * 7) % 17) as f32) / (20.0 * n as f32)).collect();
                let s: f32 = w.iter().sum();
                if s > 1.0 {
                    for x in &mut w {
                        *x /= s;
                    }
                }
                reference.update(&w);
                a.update_linkage_with(&w);
                a.update_precedence(&w);
                assert_eq!(
                    bits(a.matrix().as_slice()),
                    bits(reference.matrix().as_slice()),
                    "vs update_linkage, n={n} t={t}"
                );

                let r = Matrix::from_fn(1, n, |_, i| ((i + t) as f32 * 0.11).sin().abs() / n as f32);
                let mut want = vec![f32::NAN; n];
                reference.backward_into(r.row(0), &mut want);
                let mut got = Matrix::filled(1, n, f32::NAN);
                a.backward_heads_into(&r, &mut got);
                assert_eq!(bits(got.row(0)), bits(&want), "backward n={n} t={t}");
            }
        }
    }

    #[test]
    fn branch_free_update_equals_the_reference_over_random_and_one_hot_writes() {
        for n in [1usize, 3, 4, 7, 64, 130] {
            let mut next = xorshift(0x5eed + n as u64);
            let mut reference = TemporalLinkage::new(n);
            let mut fast = TemporalLinkage::new(n);
            for t in 0..12 {
                // Soft writes interleaved with hard ones: a one-hot write
                // makes `1 − w[i] − w[j]` exactly 0 along its row and
                // column, the case the diagonal branch used to share.
                let w = if t % 3 == 2 { one_hot(n, (t * 5) % n) } else { soft_write(n, &mut next) };
                reference.update_linkage(&w);
                fast.update_linkage_with(&w);
                assert_eq!(
                    bits(fast.matrix().as_slice()),
                    bits(reference.matrix().as_slice()),
                    "n={n} t={t}"
                );
                reference.update_precedence(&w);
                fast.update_precedence(&w);
            }
            assert!(fast.check_invariants(1e-4), "n={n}");
        }
    }

    #[test]
    fn head_batched_forward_backward_equal_the_per_head_reference() {
        for n in [1usize, 3, 4, 7, 64, 130] {
            let mut next = xorshift(0xf00d + n as u64);
            let mut l = TemporalLinkage::new(n);
            for _ in 0..5 {
                l.update(&soft_write(n, &mut next));
            }
            for r in 1..=5usize {
                // Head 0 reads nothing at all (every slot takes backward's
                // `w == 0.0` skip); the others are soft weightings with a
                // few exact zeros.
                let reads = Matrix::from_fn(r, n, |h, _| {
                    let x = next();
                    if h == 0 || x < 0.2 { 0.0 } else { x / n as f32 }
                });
                let (mut f_want, mut b_want) = (vec![f32::NAN; n], vec![f32::NAN; n]);
                let mut fwd = Matrix::filled(r, n, f32::NAN);
                let mut bwd = Matrix::filled(r, n, f32::NAN);
                l.forward_heads_into(&reads, &mut fwd);
                l.backward_heads_into(&reads, &mut bwd);
                for h in 0..r {
                    l.forward_into(reads.row(h), &mut f_want);
                    l.backward_into(reads.row(h), &mut b_want);
                    assert_eq!(bits(bwd.row(h)), bits(&b_want), "backward n={n} r={r} h={h}");
                    assert_eq!(bits(fwd.row(h)), bits(&f_want), "forward n={n} r={r} h={h}");
                }
            }
        }
    }

    #[test]
    fn clear_matches_fresh_state() {
        let mut l = TemporalLinkage::new(4);
        l.update(&one_hot(4, 1));
        l.clear();
        assert_eq!(l, TemporalLinkage::new(4));
    }
}
