//! The complete DNC: LSTM controller + memory unit + output projection.
//!
//! One [`Dnc::step`] performs: controller inference on the input
//! concatenated with the previous read vectors, interface-vector projection
//! and parsing, one memory-unit soft write + soft read, and the output
//! projection over `[h_t ; v_r]`.

use crate::interface::InterfaceVector;
use crate::lstm::Lstm;
use crate::memory::{MemoryConfig, MemoryUnit, ReadResult};
use crate::profile::{KernelId, KernelProfile};
use crate::DncParams;
use hima_tensor::{Matrix, PackedWeights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A `rows × cols` block of scaled-uniform weights (`±1/√cols`, one
/// stream per seed) that has not been drawn yet. The sequential models
/// draw it [row-major](WeightBlock::matrix), the grid engine straight
/// into [panels](WeightBlock::packed) — the same values in the same
/// order, so the two hold the same weights and no engine ever holds both
/// layouts of one block (at the paper's shapes the sixteen interface
/// projections alone are 8 MB).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WeightBlock {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) seed: u64,
}

impl WeightBlock {
    fn values(self) -> impl FnMut(usize, usize) -> f32 {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let scale = 1.0 / (self.cols as f32).sqrt();
        move |_, _| rng.gen_range(-scale..scale)
    }

    pub(crate) fn matrix(self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, self.values())
    }

    pub(crate) fn packed(self) -> PackedWeights {
        PackedWeights::from_fn(self.rows, self.cols, self.values())
    }
}

/// Seed offsets so each weight block draws an independent stream.
const SEED_LSTM: u64 = 0x11;
const SEED_INTERFACE: u64 = 0x22;
const SEED_OUTPUT: u64 = 0x33;

/// The seed-derived weights and the row-wise shard layout of a model —
/// what [`Dnc`], [`DncD`](crate::DncD) and
/// [`GridEngine`](crate::GridEngine) are all constructed from, so the
/// three stay weight-identical by construction (shard 0 of any layout
/// draws the centralized model's interface stream). It hands the weights
/// out as undrawn [`WeightBlock`]s: each consumer draws the one layout it
/// multiplies.
pub(crate) struct ModelInit {
    pub(crate) params: DncParams,
    /// One memory configuration per shard: `mem_cfg` over the shard's
    /// rows.
    pub(crate) shard_cfgs: Vec<MemoryConfig>,
    seed: u64,
}

impl ModelInit {
    /// Splits `mem_cfg`'s rows over `tiles` shards as evenly as they go:
    /// every shard gets `N / tiles` rows and the first `N % tiles` one
    /// more.
    ///
    /// # Panics
    ///
    /// Panics if `tiles == 0`, `tiles > params.memory_size` or `mem_cfg`
    /// geometry disagrees with `params`.
    pub(crate) fn new(params: DncParams, mem_cfg: MemoryConfig, tiles: usize, seed: u64) -> Self {
        assert!(tiles > 0, "need at least one tile");
        assert!(tiles <= params.memory_size, "more tiles than memory rows");
        assert_eq!(mem_cfg.memory_size, params.memory_size, "memory geometry mismatch");
        assert_eq!(mem_cfg.word_size, params.word_size, "word size mismatch");
        assert_eq!(mem_cfg.read_heads, params.read_heads, "read head mismatch");

        let (rows, extra) = (params.memory_size / tiles, params.memory_size % tiles);
        Self {
            params,
            shard_cfgs: (0..tiles)
                .map(|t| MemoryConfig { memory_size: rows + usize::from(t < extra), ..mem_cfg })
                .collect(),
            seed,
        }
    }

    fn read_width(&self) -> usize {
        self.params.read_heads * self.params.word_size
    }

    /// The controller's `(input, hidden, seed)`, on `[x_t ; v_r^{t-1}]` —
    /// the arguments of [`Lstm::new`] and
    /// [`PackedLstm::new`](crate::lstm::PackedLstm::new).
    pub(crate) fn controller(&self) -> (usize, usize, u64) {
        (self.params.input_size + self.read_width(), self.params.hidden_size, self.seed ^ SEED_LSTM)
    }

    /// One interface projection per shard, from `[h_t ; x_t]`: the input
    /// skip connection keeps write/read keys directly conditioned on the
    /// current token (Graves et al.'s controller emits the interface
    /// from all layer outputs, input included).
    pub(crate) fn interface_projs(&self) -> impl Iterator<Item = WeightBlock> + '_ {
        (0..self.shard_cfgs.len()).map(|t| WeightBlock {
            rows: self.params.interface_size(),
            cols: self.params.hidden_size + self.params.input_size,
            seed: (self.seed ^ SEED_INTERFACE).wrapping_add(t as u64 * 7919),
        })
    }

    /// The output projection, from `[h_t ; v_r]`.
    pub(crate) fn output_proj(&self) -> WeightBlock {
        WeightBlock {
            rows: self.params.output_size,
            cols: self.params.hidden_size + self.read_width(),
            seed: self.seed ^ SEED_OUTPUT,
        }
    }
}

/// A complete Differentiable Neural Computer.
///
/// # Example
///
/// ```
/// use hima_dnc::{Dnc, DncParams};
///
/// let mut dnc = Dnc::new(DncParams::new(16, 4, 1).with_io(3, 3), 7);
/// let y1 = dnc.step(&[1.0, 0.0, 0.0]);
/// let y2 = dnc.step(&[0.0, 1.0, 0.0]);
/// assert_eq!(y1.len(), 3);
/// assert_ne!(y1, y2, "memory state makes steps differ");
/// ```
#[derive(Debug, Clone)]
pub struct Dnc {
    params: DncParams,
    controller: Lstm,
    interface_proj: Matrix,
    output_proj: Matrix,
    memory: MemoryUnit,
    last_read: Vec<f32>,
    last_hidden: Vec<f32>,
    profile: KernelProfile,
}

impl Dnc {
    /// Creates a DNC with procedurally initialized weights and an exact
    /// (no skimming, exact-softmax) memory unit.
    pub fn new(params: DncParams, seed: u64) -> Self {
        let mem_cfg = MemoryConfig::new(params.memory_size, params.word_size, params.read_heads);
        Self::with_memory_config(params, mem_cfg, seed)
    }

    /// Creates a DNC with a custom memory-unit configuration (skimming,
    /// softmax approximation).
    ///
    /// # Panics
    ///
    /// Panics if `mem_cfg` geometry disagrees with `params`.
    pub(crate) fn with_memory_config(params: DncParams, mem_cfg: MemoryConfig, seed: u64) -> Self {
        let init = ModelInit::new(params, mem_cfg, 1, seed);
        let (input, hidden, lstm_seed) = init.controller();
        let interface_proj = init.interface_projs().next().expect("one shard").matrix();
        Self {
            params,
            controller: Lstm::new(input, hidden, lstm_seed),
            interface_proj,
            output_proj: init.output_proj().matrix(),
            memory: MemoryUnit::new(mem_cfg),
            last_read: vec![0.0; params.read_heads * params.word_size],
            last_hidden: vec![0.0; params.hidden_size],
            profile: KernelProfile::new(),
        }
    }

    /// The memory unit (for state inspection).
    pub fn memory(&self) -> &MemoryUnit {
        &self.memory
    }

    /// The read vectors fed to the controller at the next step.
    pub fn last_read(&self) -> &[f32] {
        &self.last_read
    }

    /// Merged kernel profile (controller + memory unit).
    pub fn profile(&self) -> KernelProfile {
        let mut p = self.profile.clone();
        p.merge(self.memory.profile());
        p
    }

    /// Resets memory and recurrent state in place (weights unchanged).
    pub fn reset(&mut self) {
        self.controller.reset();
        self.memory.reset();
        self.last_read.fill(0.0);
        self.last_hidden.fill(0.0);
    }

    /// Runs one time step and returns the output vector.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != params.input_size`.
    pub fn step(&mut self, input: &[f32]) -> Vec<f32> {
        let (_, y) = self.step_detailed(input);
        y
    }

    /// Runs one time step, returning the memory read result and the output.
    pub(crate) fn step_detailed(&mut self, input: &[f32]) -> (ReadResult, Vec<f32>) {
        assert_eq!(input.len(), self.params.input_size, "input width mismatch");

        // Controller on [x_t ; v_r^{t-1}].
        let mut ctrl_in = Vec::with_capacity(input.len() + self.last_read.len());
        ctrl_in.extend_from_slice(input);
        ctrl_in.extend_from_slice(&self.last_read);
        let controller = &mut self.controller;
        let hidden = self.profile.time(KernelId::Lstm, || controller.step(&ctrl_in));

        // Interface projection + parse (input skip connection).
        let mut iface_in = Vec::with_capacity(hidden.len() + input.len());
        iface_in.extend_from_slice(&hidden);
        iface_in.extend_from_slice(input);
        let interface_proj = &self.interface_proj;
        let raw_iface = self.profile.time(KernelId::Projection, || interface_proj.matvec(&iface_in));
        let iv = InterfaceVector::parse(&raw_iface, self.params.word_size, self.params.read_heads);

        // Memory unit step.
        let read = self.memory.step(&iv);
        self.last_read = read.flattened();

        // Output projection over [h ; v_r].
        let mut out_in = Vec::with_capacity(hidden.len() + self.last_read.len());
        out_in.extend_from_slice(&hidden);
        out_in.extend_from_slice(&self.last_read);
        let output_proj = &self.output_proj;
        let y = self.profile.time(KernelId::Projection, || output_proj.matvec(&out_in));
        self.last_hidden = hidden;

        (read, y)
    }

    /// Runs a whole input sequence, returning one output per step.
    pub fn run_sequence(&mut self, inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        inputs.iter().map(|x| self.step(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::SkimRate;

    fn params() -> DncParams {
        DncParams::new(16, 4, 2).with_hidden(24).with_io(5, 6)
    }

    #[test]
    fn output_width_matches_params() {
        let mut dnc = Dnc::new(params(), 3);
        assert_eq!(dnc.step(&[0.1; 5]).len(), 6);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mut a = Dnc::new(params(), 11);
        let mut b = Dnc::new(params(), 11);
        for t in 0..5 {
            let x: Vec<f32> = (0..5).map(|i| ((t * 5 + i) as f32 * 0.3).sin()).collect();
            assert_eq!(a.step(&x), b.step(&x), "t={t}");
        }
    }

    #[test]
    fn different_seeds_give_different_models() {
        let mut a = Dnc::new(params(), 1);
        let mut b = Dnc::new(params(), 2);
        assert_ne!(a.step(&[0.5; 5]), b.step(&[0.5; 5]));
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        let mut dnc = Dnc::new(params(), 5);
        let first = dnc.step(&[1.0, 0.0, 0.0, 0.0, 0.0]);
        for _ in 0..10 {
            dnc.step(&[0.3; 5]);
        }
        dnc.reset();
        let again = dnc.step(&[1.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(first, again);
    }

    #[test]
    fn memory_state_influences_outputs() {
        let mut dnc = Dnc::new(params(), 9);
        let y1 = dnc.step(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let y2 = dnc.step(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_ne!(y1, y2, "same input must give different output once state evolves");
    }

    #[test]
    fn invariants_hold_through_a_long_run() {
        let mut dnc = Dnc::new(params(), 13);
        for t in 0..60 {
            let x: Vec<f32> = (0..5).map(|i| ((t * 3 + i * 7) as f32 * 0.11).cos()).collect();
            dnc.step(&x);
            assert!(dnc.memory().check_invariants(1e-3), "t={t}");
        }
    }

    #[test]
    fn profile_includes_controller_and_memory() {
        let mut dnc = Dnc::new(params(), 4);
        dnc.step(&[0.2; 5]);
        let p = dnc.profile();
        assert_eq!(p.calls(KernelId::Lstm), 1);
        assert_eq!(p.calls(KernelId::Projection), 2, "interface + output");
        assert!(p.calls(KernelId::MemoryRead) > 0);
    }

    #[test]
    fn run_sequence_matches_stepping() {
        let inputs: Vec<Vec<f32>> = (0..6).map(|t| vec![t as f32 * 0.1; 5]).collect();
        let mut a = Dnc::new(params(), 21);
        let seq = a.run_sequence(&inputs);
        let mut b = Dnc::new(params(), 21);
        for (x, want) in inputs.iter().zip(&seq) {
            assert_eq!(&b.step(x), want);
        }
    }

    #[test]
    fn hardware_features_are_close_to_exact() {
        let exact_params = params();
        let mut exact = Dnc::new(exact_params, 17);
        let cfg = MemoryConfig::new(16, 4, 2)
            .with_skim(SkimRate::new(0.2))
            .with_approx_softmax(true);
        let mut hw = Dnc::with_memory_config(exact_params, cfg, 17);
        let mut max_err = 0.0f32;
        for t in 0..20 {
            let x: Vec<f32> = (0..5).map(|i| ((t * 7 + i) as f32 * 0.23).sin()).collect();
            let ye = exact.step(&x);
            let yh = hw.step(&x);
            for (a, b) in ye.iter().zip(&yh) {
                max_err = max_err.max((a - b).abs());
            }
        }
        assert!(max_err < 0.5, "hardware approximations diverged: {max_err}");
        assert!(max_err > 0.0, "approximations should not be bit-identical");
    }
}
