//! Single-layer LSTM controller.
//!
//! The DNC controller consumes the external input concatenated with the
//! previous step's read vectors and produces the hidden state from which
//! both the interface vector and the output are projected. Weights are
//! procedurally initialized (scaled uniform) from a seed; the reproduction
//! does not train the controller — see DESIGN.md for why relative
//! DNC-vs-DNC-D accuracy does not require trained weights.
//!
//! Two forms of one cell. [`Lstm`] owns row-major gate weights and steps
//! a single sequence by plain `matvec` ([`Lstm::step`],
//! [`Lstm::step_with_state`]) — the sequential models' controller and the
//! oracle of every batched test. [`PackedLstm`] is what the grid engine
//! holds: the weights of the same `(input, hidden, seed)` panel-packed
//! ([`hima_tensor::PackedWeights`]) and the **one** batched step,
//! [`PackedLstm::step_masked_into`], bit-identical to `B` scalar steps.
//! The batched step lives with the packed weights because that is the
//! only layout it multiplies.

use crate::dnc::WeightBlock;
use hima_tensor::transcend::lstm_gates;
use hima_tensor::{vector, LaneMask, Matrix, PackedWeights};
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
/// [`PackedLstm::step_masked_into`] allocates nothing. Owned by the
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

/// The undrawn gate weights (rows `i, f, g, o`; scaled-uniform in
/// `±1/√(input+hidden)`) and the gate bias (forget gate +1, the standard
/// trick that keeps memory cells alive early on) of an `input → hidden`
/// cell — shared by [`Lstm::new`] and [`PackedLstm::new`], so the two
/// layouts hold the same weights.
///
/// # Panics
///
/// Panics if `input == 0` or `hidden == 0`.
fn gate_init(input: usize, hidden: usize, seed: u64) -> (WeightBlock, Vec<f32>) {
    assert!(input > 0 && hidden > 0, "LSTM dimensions must be positive");
    let mut bias = vec![0.0; 4 * hidden];
    bias[hidden..2 * hidden].fill(1.0);
    (WeightBlock { rows: 4 * hidden, cols: input + hidden, seed }, bias)
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
    /// Creates an LSTM with procedurally initialized weights:
    /// scaled-uniform in `±1/√(input+hidden)`, forget-gate bias +1.
    ///
    /// # Panics
    ///
    /// Panics if `input == 0` or `hidden == 0`.
    pub fn new(input: usize, hidden: usize, seed: u64) -> Self {
        let (gates, bias) = gate_init(input, hidden, seed);
        Self {
            input_size: input,
            hidden_size: hidden,
            weights: gates.matrix(),
            bias,
            state: LstmState::zeros(hidden),
        }
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
    /// kernel behind [`Lstm::step`] (one internal lane), and the oracle
    /// the batched step ([`PackedLstm::step_masked_into`]: one external
    /// state per batch lane, shared weights) is checked against.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_size` or the state width disagrees
    /// with `hidden_size`.
    pub fn step_with_state(&self, state: &mut LstmState, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.input_size, "LSTM input width mismatch");
        assert_eq!(state.hidden.len(), self.hidden_size, "LSTM state width mismatch");
        assert_eq!(state.cell.len(), self.hidden_size, "LSTM state width mismatch");
        let mut x = Vec::with_capacity(self.input_size + self.hidden_size);
        x.extend_from_slice(input);
        x.extend_from_slice(&state.hidden);

        let pre = vector::add(&self.weights.matvec(&x), &self.bias);
        // The same gate pass the batched step runs.
        lstm_gates(&pre, &mut state.cell, &mut state.hidden);
        state.hidden.clone()
    }
}

/// The batched controller: an [`Lstm`]'s gate weights panel-packed
/// ([`PackedWeights`]) and its one step over `B` lanes. It holds no
/// recurrent state — each lane's [`LstmState`] is the caller's.
#[derive(Debug, Clone)]
pub struct PackedLstm {
    input_size: usize,
    hidden_size: usize,
    /// Gate weights, `4·hidden × (input + hidden)` before packing.
    weights: PackedWeights,
    bias: Vec<f32>,
}

impl PackedLstm {
    /// The packed form of `Lstm::new(input, hidden, seed)`: the same
    /// weights, drawn straight into panels.
    ///
    /// # Panics
    ///
    /// Panics if `input == 0` or `hidden == 0`.
    pub fn new(input: usize, hidden: usize, seed: u64) -> Self {
        let (gates, bias) = gate_init(input, hidden, seed);
        Self { input_size: input, hidden_size: hidden, weights: gates.packed(), bias }
    }

    /// Runs one time step for the lanes `mask` marks active through the
    /// shared weights: `inputs` is `B × input_size` (one lane per row),
    /// `states` holds one recurrent state per lane, and `hidden_out`
    /// receives the `B × hidden_size` block of hidden states.
    ///
    /// The pre-activations of all active lanes are one `[X ; H] · Wᵀ`
    /// packed product, and the gate math is one fused pass per active
    /// lane over its pre-activation row — [`lstm_gates`], the function
    /// [`Lstm::step_with_state`] calls too (`σ`/`tanh` of `pre + bias`,
    /// `c' = f·c + i·g`, `h' = o·tanh c'`), so active lanes are
    /// bit-identical to `B` scalar steps. An inactive lane's recurrent
    /// state is **frozen** — its row of the product, the gate
    /// activations and the state update are all skipped (not zeroed and
    /// recomputed) — and its row of `hidden_out` holds the frozen hidden
    /// state, so downstream feature consumers keep seeing the lane's
    /// last real activation.
    ///
    /// The `[X ; H]` and pre-activation blocks come from `scratch`: zero
    /// heap allocations once it and `hidden_out` match the geometry (they
    /// are resized in place when not).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.rows() != states.len()`,
    /// `mask.lanes() != states.len()`, the input width is wrong, or any
    /// state width disagrees with `hidden_size`.
    pub fn step_masked_into(
        &self,
        states: &mut [LstmState],
        inputs: &Matrix,
        mask: &LaneMask,
        scratch: &mut LstmScratch,
        hidden_out: &mut Matrix,
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
        self.weights.matmul_masked_into(&scratch.x_cat, mask, &mut scratch.pre);
        scratch.pre.add_row_inplace_masked(&self.bias, mask);

        // Gates, cell and hidden update fused per active lane.
        for (bi, state) in states.iter_mut().enumerate() {
            if !mask.is_active(bi) {
                // Frozen lane: surface the held hidden state instead of
                // the skipped row.
                hidden_out.row_mut(bi).copy_from_slice(&state.hidden);
                continue;
            }
            let out_row = hidden_out.row_mut(bi);
            lstm_gates(scratch.pre.row(bi), &mut state.cell, out_row);
            state.hidden.copy_from_slice(out_row);
        }
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
        let (lstm, packed) = (Lstm::new(3, 5, 11), PackedLstm::new(3, 5, 11));
        let lens = [3usize, 1, 2];
        let mut states = vec![LstmState::zeros(5); 3];
        // One scratch and output block across steps, lanes freezing as
        // their sequences end: stale rows must never leak into active
        // results.
        let mut scratch = LstmScratch::sized(3, 3, 5);
        let mut h = Matrix::zeros(3, 5);
        // Scalar reference: each lane steps alone, only while its
        // sequence lasts.
        let mut reference = vec![LstmState::zeros(5); 3];
        for t in 0..3 {
            let mask = LaneMask::for_step(&lens, t);
            let inputs = Matrix::from_fn(3, 3, |b, i| ((b * 7 + t * 3 + i) as f32 * 0.31).sin());
            packed.step_masked_into(&mut states, &inputs, &mask, &mut scratch, &mut h);
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
    #[should_panic(expected = "lane mask size mismatch")]
    fn masked_step_rejects_wrong_mask_length() {
        let packed = PackedLstm::new(2, 3, 0);
        let mut states = vec![LstmState::zeros(3); 2];
        let (mut scratch, mut h) = (LstmScratch::sized(2, 2, 3), Matrix::zeros(2, 3));
        let mask = LaneMask::full(3);
        packed.step_masked_into(&mut states, &Matrix::zeros(2, 2), &mask, &mut scratch, &mut h);
    }

    #[test]
    fn reused_scratch_stays_bit_identical_across_steps() {
        // Scratch and output block of the wrong geometry are resized in
        // place, then reused; a fresh pair per step must agree with them.
        let packed = PackedLstm::new(3, 5, 21);
        let mut scratch = LstmScratch::sized(1, 1, 1);
        let mut hidden = Matrix::zeros(1, 1);
        let mut states = vec![LstmState::zeros(5); 2];
        let mut reference = vec![LstmState::zeros(5); 2];
        for t in 0..4 {
            let mask = LaneMask::from(vec![true, t % 2 == 0]);
            let inputs = Matrix::from_fn(2, 3, |b, i| ((b * 5 + t * 3 + i) as f32 * 0.27).sin());
            packed.step_masked_into(&mut states, &inputs, &mask, &mut scratch, &mut hidden);
            let (mut fresh, mut want) = (LstmScratch::sized(2, 3, 5), Matrix::zeros(2, 5));
            packed.step_masked_into(&mut reference, &inputs, &mask, &mut fresh, &mut want);
            assert_eq!(hidden, want, "t={t}");
            assert_eq!(states, reference, "t={t}");
        }
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn rejects_wrong_input_width() {
        Lstm::new(3, 4, 0).step(&[1.0]);
    }
}
