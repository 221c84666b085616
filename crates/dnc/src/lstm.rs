//! Single-layer LSTM controller.
//!
//! The DNC controller consumes the external input concatenated with the
//! previous step's read vectors and produces the hidden state from which
//! both the interface vector and the output are projected. Weights are
//! procedurally initialized (scaled uniform) from a seed; the reproduction
//! does not train the controller — see DESIGN.md for why relative
//! DNC-vs-DNC-D accuracy does not require trained weights.

use hima_tensor::activation::{sigmoid, tanh};
use hima_tensor::{Backend, LaneMask, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// LSTM cell state carried across time steps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LstmState {
    /// Hidden state `h_t`.
    pub hidden: Vec<f32>,
    /// Cell state `c_t`.
    pub cell: Vec<f32>,
}

impl LstmState {
    /// Zero state of width `hidden`.
    pub fn zeros(hidden: usize) -> Self {
        Self { hidden: vec![0.0; hidden], cell: vec![0.0; hidden] }
    }

    /// Zeroes the state in place — the allocation-free form of replacing
    /// it with [`LstmState::zeros`].
    pub fn clear(&mut self) {
        self.hidden.fill(0.0);
        self.cell.fill(0.0);
    }
}

/// Reusable scratch of the batched controller step: the `[X ; H]`
/// concatenation block and the pre-activation block, pre-sized so
/// [`Lstm::step_batch_masked_into`] allocates nothing. Owned by the
/// engine's step workspace.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmScratch {
    /// `[X ; H^{t-1}]`, `B × (I + H)`.
    x_cat: Matrix,
    /// Pre-activations `[i f g o]`, `B × 4H`.
    pre: Matrix,
}

impl LstmScratch {
    /// Scratch sized for `batch` lanes of an `input → hidden` LSTM.
    pub fn sized(batch: usize, input: usize, hidden: usize) -> Self {
        Self { x_cat: Matrix::zeros(batch, input + hidden), pre: Matrix::zeros(batch, 4 * hidden) }
    }

    /// Resizes on geometry change; a no-op in the steady state.
    fn ensure(&mut self, batch: usize, input: usize, hidden: usize) {
        if self.x_cat.shape() != (batch, input + hidden) {
            self.x_cat = Matrix::zeros(batch, input + hidden);
        }
        if self.pre.shape() != (batch, 4 * hidden) {
            self.pre = Matrix::zeros(batch, 4 * hidden);
        }
    }
}

/// A single-layer LSTM with input width `input` and hidden width `hidden`.
///
/// # Example
///
/// ```
/// use hima_dnc::lstm::Lstm;
///
/// let mut lstm = Lstm::new(4, 8, 7);
/// let h = lstm.step(&[0.1, 0.2, 0.3, 0.4]);
/// assert_eq!(h.len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lstm {
    input_size: usize,
    hidden_size: usize,
    /// Gate weights: rows = 4*hidden (i, f, g, o), cols = input + hidden.
    weights: Matrix,
    bias: Vec<f32>,
    state: LstmState,
}

impl Lstm {
    /// Creates an LSTM with procedurally initialized weights.
    ///
    /// Initialization is scaled-uniform in `±1/√(input+hidden)` with the
    /// forget-gate bias set to +1 (the standard trick that keeps memory
    /// cells alive early on).
    ///
    /// # Panics
    ///
    /// Panics if `input == 0` or `hidden == 0`.
    pub fn new(input: usize, hidden: usize, seed: u64) -> Self {
        assert!(input > 0 && hidden > 0, "LSTM dimensions must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let cols = input + hidden;
        let scale = 1.0 / (cols as f32).sqrt();
        let weights = Matrix::from_fn(4 * hidden, cols, |_, _| rng.gen_range(-scale..scale));
        let mut bias = vec![0.0; 4 * hidden];
        for b in bias.iter_mut().take(2 * hidden).skip(hidden) {
            *b = 1.0; // forget gate bias
        }
        Self { input_size: input, hidden_size: hidden, weights, bias, state: LstmState::zeros(hidden) }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Current state (hidden + cell).
    pub fn state(&self) -> &LstmState {
        &self.state
    }

    /// Resets the recurrent state to zeros.
    pub fn reset(&mut self) {
        self.state.clear();
    }

    /// Runs one time step on the cell's own recurrent state, returning the
    /// new hidden state.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_size`.
    pub fn step(&mut self, input: &[f32]) -> Vec<f32> {
        // Validate before temporarily moving the state out, so a caller
        // error cannot leave `self.state` holding the empty placeholder.
        assert_eq!(input.len(), self.input_size, "LSTM input width mismatch");
        let mut state = std::mem::replace(&mut self.state, LstmState { hidden: Vec::new(), cell: Vec::new() });
        let new_h = self.step_with_state(&mut state, input);
        self.state = state;
        new_h
    }

    /// Runs one time step on caller-owned recurrent state — the lane
    /// kernel behind both [`Lstm::step`] (one internal lane) and the
    /// batched path (one external state per batch lane, shared weights).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_size` or the state width disagrees
    /// with `hidden_size`.
    pub fn step_with_state(&self, state: &mut LstmState, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.input_size, "LSTM input width mismatch");
        assert_eq!(state.hidden.len(), self.hidden_size, "LSTM state width mismatch");
        let h = self.hidden_size;
        let mut x = Vec::with_capacity(self.input_size + h);
        x.extend_from_slice(input);
        x.extend_from_slice(&state.hidden);

        let pre = self.weights.matvec(&x);
        let mut new_c = vec![0.0; h];
        let mut new_h = vec![0.0; h];
        for j in 0..h {
            let i_g = sigmoid(pre[j] + self.bias[j]);
            let f_g = sigmoid(pre[h + j] + self.bias[h + j]);
            let g = tanh(pre[2 * h + j] + self.bias[2 * h + j]);
            let o_g = sigmoid(pre[3 * h + j] + self.bias[3 * h + j]);
            new_c[j] = f_g * state.cell[j] + i_g * g;
            new_h[j] = o_g * tanh(new_c[j]);
        }
        *state = LstmState { hidden: new_h.clone(), cell: new_c };
        new_h
    }

    /// Runs one time step for `B` independent lanes through the shared
    /// weights: `inputs` is `B × input_size` (one lane per row), `states`
    /// holds one recurrent state per lane, and the returned matrix is the
    /// `B × hidden_size` block of new hidden states.
    ///
    /// The pre-activations for all lanes are produced by a single batched
    /// `[X ; H] · Wᵀ` product and the gate nonlinearities are applied to
    /// whole `B × H` row-blocks, so one call replaces `B` scalar
    /// [`Lstm::step_with_state`] calls while staying bit-compatible with
    /// them (same per-row accumulation order, same elementwise ops).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.rows() != states.len()`, the input width is wrong,
    /// or any state width disagrees with `hidden_size`.
    pub fn step_batch(&self, states: &mut [LstmState], inputs: &Matrix) -> Matrix {
        self.step_batch_masked(states, inputs, &LaneMask::full(states.len()))
    }

    /// Masked form of [`Lstm::step_batch`] for ragged batches: only the
    /// lanes `mask` marks active advance. An inactive lane's recurrent
    /// state is **frozen** — its row of the shared-weight product, the
    /// gate activations and the state update are all skipped (not
    /// zeroed and recomputed) — and its row of the returned hidden block
    /// holds the frozen hidden state, so downstream feature consumers
    /// keep seeing the lane's last real activation.
    ///
    /// Active lanes are bit-identical to [`Lstm::step_batch`] (and hence
    /// to `B` scalar [`Lstm::step_with_state`] calls); a fully-active
    /// mask reproduces the unmasked step exactly — `step_batch` is this
    /// kernel with [`LaneMask::full`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.rows() != states.len()`,
    /// `mask.lanes() != states.len()`, the input width is wrong, or any
    /// state width disagrees with `hidden_size`.
    pub fn step_batch_masked(
        &self,
        states: &mut [LstmState],
        inputs: &Matrix,
        mask: &LaneMask,
    ) -> Matrix {
        let (b, h) = (states.len(), self.hidden_size);
        let mut scratch = LstmScratch::sized(b, self.input_size, h);
        let mut hidden = Matrix::zeros(b, h);
        self.step_batch_masked_into(states, inputs, mask, &mut scratch, &mut hidden);
        hidden
    }

    /// Workspace form of [`Lstm::step_batch_masked`]: the `[X ; H]`
    /// concatenation and pre-activation blocks come from `scratch` and
    /// the new hidden block lands in `hidden_out` — zero heap allocations
    /// once both match the geometry (they are resized in place when not).
    ///
    /// The gate math runs as one fused pass per active lane over the
    /// pre-activation row — the same per-element expressions
    /// (`σ`/`tanh` of `pre + bias`, `c' = f·c + i·g`, `h' = o·tanh c'`)
    /// the row-block kernels apply, so the result is bit-identical to
    /// [`Lstm::step_batch_masked`] and to `B` scalar
    /// [`Lstm::step_with_state`] calls. Frozen lanes surface their held
    /// hidden state in `hidden_out` exactly as before.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.rows() != states.len()`,
    /// `mask.lanes() != states.len()`, the input width is wrong, or any
    /// state width disagrees with `hidden_size`.
    pub fn step_batch_masked_into(
        &self,
        states: &mut [LstmState],
        inputs: &Matrix,
        mask: &LaneMask,
        scratch: &mut LstmScratch,
        hidden_out: &mut Matrix,
    ) {
        self.step_batch_masked_into_with(states, inputs, mask, scratch, hidden_out, Backend::Scalar);
    }

    /// Backend-dispatching form of [`Lstm::step_batch_masked_into`]: the
    /// shared-weight `[X ; H] · Wᵀ` product runs on the selected kernel
    /// tier while the fused gate arithmetic keeps the exact per-element
    /// expressions on both tiers. On [`Backend::Scalar`] this is
    /// bit-identical to [`Lstm::step_batch_masked_into`]; on
    /// [`Backend::Blocked`] the pre-activations carry the documented
    /// re-association tolerance and everything downstream of them is the
    /// same arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.rows() != states.len()`,
    /// `mask.lanes() != states.len()`, the input width is wrong, or any
    /// state width disagrees with `hidden_size`.
    pub fn step_batch_masked_into_with(
        &self,
        states: &mut [LstmState],
        inputs: &Matrix,
        mask: &LaneMask,
        scratch: &mut LstmScratch,
        hidden_out: &mut Matrix,
        backend: Backend,
    ) {
        assert_eq!(inputs.rows(), states.len(), "LSTM batch size mismatch");
        assert_eq!(inputs.cols(), self.input_size, "LSTM input width mismatch");
        assert_eq!(mask.lanes(), states.len(), "LSTM lane mask size mismatch");
        let (b, h) = (states.len(), self.hidden_size);
        scratch.ensure(b, self.input_size, h);
        if hidden_out.shape() != (b, h) {
            *hidden_out = Matrix::zeros(b, h);
        }

        // [X ; H^{t-1}] as one B × (I+H) row-block; inactive lanes' rows
        // are stale scratch — the masked product skips them.
        for (bi, state) in states.iter().enumerate() {
            assert_eq!(state.hidden.len(), h, "LSTM state width mismatch");
            assert_eq!(state.cell.len(), h, "LSTM state width mismatch");
            if !mask.is_active(bi) {
                continue;
            }
            let row = scratch.x_cat.row_mut(bi);
            row[..self.input_size].copy_from_slice(inputs.row(bi));
            row[self.input_size..].copy_from_slice(&state.hidden);
        }

        // One shared-weight product for the active lanes, plus the bias
        // broadcast.
        backend.matmul_nt_masked_into(&scratch.x_cat, &self.weights, mask, &mut scratch.pre);
        scratch.pre.add_row_inplace_masked(&self.bias, mask);

        // Gates, cell and hidden update fused per active lane.
        for (bi, state) in states.iter_mut().enumerate() {
            if !mask.is_active(bi) {
                // Frozen lane: surface the held hidden state instead of
                // the skipped row.
                hidden_out.row_mut(bi).copy_from_slice(&state.hidden);
                continue;
            }
            let pre = scratch.pre.row(bi);
            let out_row = hidden_out.row_mut(bi);
            for (j, (o, c)) in out_row.iter_mut().zip(&mut state.cell).enumerate() {
                let i_g = sigmoid(pre[j]);
                let f_g = sigmoid(pre[h + j]);
                let g = tanh(pre[2 * h + j]);
                let o_g = sigmoid(pre[3 * h + j]);
                let new_c = f_g * *c + i_g * g;
                *c = new_c;
                *o = o_g * tanh(new_c);
            }
            state.hidden.copy_from_slice(out_row);
        }
    }

    /// Approximate multiply-accumulate count of one step (used by runtime
    /// models): `4·H·(I+H)`.
    pub fn macs_per_step(&self) -> u64 {
        4 * self.hidden_size as u64 * (self.input_size + self.hidden_size) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_width_is_hidden_size() {
        let mut l = Lstm::new(3, 5, 1);
        assert_eq!(l.step(&[1.0, 0.0, -1.0]).len(), 5);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Lstm::new(4, 6, 9);
        let mut b = Lstm::new(4, 6, 9);
        let x = [0.1, -0.2, 0.3, 0.4];
        assert_eq!(a.step(&x), b.step(&x));
        assert_eq!(a.step(&x), b.step(&x), "state evolution must match too");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Lstm::new(4, 6, 1);
        let mut b = Lstm::new(4, 6, 2);
        let x = [0.5; 4];
        assert_ne!(a.step(&x), b.step(&x));
    }

    #[test]
    fn state_evolves_and_reset_restores() {
        let mut l = Lstm::new(2, 4, 3);
        let first = l.step(&[1.0, 1.0]);
        let second = l.step(&[1.0, 1.0]);
        assert_ne!(first, second, "recurrence must make steps differ");
        l.reset();
        let again = l.step(&[1.0, 1.0]);
        assert_eq!(first, again, "reset must restore the initial state");
    }

    #[test]
    fn hidden_stays_bounded() {
        let mut l = Lstm::new(2, 8, 5);
        for t in 0..100 {
            let h = l.step(&[(t as f32 * 0.37).sin(), 1.0]);
            assert!(h.iter().all(|x| x.abs() <= 1.0), "tanh-bounded output");
        }
    }

    #[test]
    fn masked_step_freezes_inactive_lanes_and_matches_scalar_stepping() {
        let lstm = Lstm::new(3, 5, 11);
        let lens = [3usize, 1, 2];
        let mut states = vec![LstmState::zeros(5); 3];
        // Scalar reference: each lane steps alone, only while its
        // sequence lasts.
        let mut reference = vec![LstmState::zeros(5); 3];
        for t in 0..3 {
            let mask = LaneMask::for_step(&lens, t);
            let inputs = Matrix::from_fn(3, 3, |b, i| ((b * 7 + t * 3 + i) as f32 * 0.31).sin());
            let h = lstm.step_batch_masked(&mut states, &inputs, &mask);
            for b in 0..3 {
                if t < lens[b] {
                    let want = lstm.step_with_state(&mut reference[b], inputs.row(b));
                    assert_eq!(h.row(b), &want[..], "lane {b} t {t}");
                } else {
                    assert_eq!(h.row(b), &reference[b].hidden[..], "frozen lane {b} t {t}");
                }
                assert_eq!(states[b], reference[b], "lane {b} state after t {t}");
            }
        }
    }

    #[test]
    fn full_mask_is_bit_identical_to_step_batch() {
        let lstm = Lstm::new(4, 6, 5);
        let inputs = Matrix::from_fn(2, 4, |b, i| (b as f32 - 0.5) * 0.3 + i as f32 * 0.1);
        let mut a = vec![LstmState::zeros(6); 2];
        let mut b = vec![LstmState::zeros(6); 2];
        let ha = lstm.step_batch(&mut a, &inputs);
        let hb = lstm.step_batch_masked(&mut b, &inputs, &LaneMask::full(2));
        assert_eq!(ha, hb);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "lane mask size mismatch")]
    fn masked_step_rejects_wrong_mask_length() {
        let lstm = Lstm::new(2, 3, 0);
        let mut states = vec![LstmState::zeros(3); 2];
        lstm.step_batch_masked(&mut states, &Matrix::zeros(2, 2), &LaneMask::full(3));
    }

    #[test]
    fn reused_scratch_stays_bit_identical_across_steps() {
        let lstm = Lstm::new(3, 5, 21);
        let mut scratch = LstmScratch::sized(2, 3, 5);
        let mut hidden = Matrix::zeros(2, 5);
        let mut states = vec![LstmState::zeros(5); 2];
        let mut reference = vec![LstmState::zeros(5); 2];
        for t in 0..4 {
            // Lane 1 freezes on odd steps: stale scratch rows must never
            // leak into active results.
            let mask = LaneMask::from(vec![true, t % 2 == 0]);
            let inputs = Matrix::from_fn(2, 3, |b, i| ((b * 5 + t * 3 + i) as f32 * 0.27).sin());
            lstm.step_batch_masked_into(&mut states, &inputs, &mask, &mut scratch, &mut hidden);
            let want = lstm.step_batch_masked(&mut reference, &inputs, &mask);
            assert_eq!(hidden, want, "t={t}");
            assert_eq!(states, reference, "t={t}");
        }
    }

    #[test]
    fn macs_formula() {
        let l = Lstm::new(10, 20, 0);
        assert_eq!(l.macs_per_step(), 4 * 20 * 30);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn rejects_wrong_input_width() {
        Lstm::new(3, 4, 0).step(&[1.0]);
    }
}
