//! The model's seed-derived weights and shard layout ([`ModelInit`]):
//! what [`GridEngine`](crate::GridEngine) is built from, and what the
//! sequential reference in `hima-testkit` draws its row-major weights
//! from, so the two hold the same weights by construction.

use crate::memory::MemoryConfig;
use crate::DncParams;
use hima_tensor::{Matrix, PackedWeights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A `rows × cols` block of scaled-uniform weights (`±1/√cols`, one
/// stream per seed) that has not been drawn yet. The sequential
/// reference draws it [row-major](WeightBlock::matrix), the grid engine
/// straight into [panels](WeightBlock::packed) — the same values in the
/// same order, so the two hold the same weights and no engine ever holds
/// both layouts of one block (at the paper's shapes the sixteen interface
/// projections alone are 8 MB).
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct WeightBlock {
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

    /// The block drawn row-major.
    pub fn matrix(self) -> Matrix {
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
/// what [`GridEngine`](crate::GridEngine) and the sequential reference
/// are both constructed from, so they stay weight-identical by
/// construction (shard 0 of any layout draws the centralized model's
/// interface stream). It hands the weights out as undrawn
/// [`WeightBlock`]s: each consumer draws the one layout it multiplies.
#[doc(hidden)]
pub struct ModelInit {
    pub(crate) params: DncParams,
    /// One memory configuration per shard: `mem_cfg` over the shard's
    /// rows.
    pub shard_cfgs: Vec<MemoryConfig>,
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
    pub fn new(params: DncParams, mem_cfg: MemoryConfig, tiles: usize, seed: u64) -> Self {
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
    /// the arguments of [`Lstm::new`](crate::lstm::Lstm::new) and
    /// [`PackedLstm::new`](crate::lstm::PackedLstm::new).
    pub fn controller(&self) -> (usize, usize, u64) {
        (self.params.input_size + self.read_width(), self.params.hidden_size, self.seed ^ SEED_LSTM)
    }

    /// One interface projection per shard, from `[h_t ; x_t]`: the input
    /// skip connection keeps write/read keys directly conditioned on the
    /// current token (Graves et al.'s controller emits the interface
    /// from all layer outputs, input included).
    pub fn interface_projs(&self) -> impl Iterator<Item = WeightBlock> + '_ {
        (0..self.shard_cfgs.len()).map(|t| WeightBlock {
            rows: self.params.interface_size(),
            cols: self.params.hidden_size + self.params.input_size,
            seed: (self.seed ^ SEED_INTERFACE).wrapping_add(t as u64 * 7919),
        })
    }

    /// The output projection, from `[h_t ; v_r]`.
    pub fn output_proj(&self) -> WeightBlock {
        WeightBlock {
            rows: self.params.output_size,
            cols: self.params.hidden_size + self.read_width(),
            seed: self.seed ^ SEED_OUTPUT,
        }
    }
}

#[cfg(test)]
mod tests {
    //! The centralized DNC as the engine runs it: the monolithic one-lane
    //! grid.
    use crate::allocation::SkimRate;
    use crate::builder::{BoxedEngine, EngineBuilder};
    use crate::profile::KernelId;
    use crate::DncParams;

    fn params() -> DncParams {
        DncParams::new(16, 4, 2).with_hidden(24).with_io(5, 6)
    }

    fn dnc(seed: u64) -> BoxedEngine {
        EngineBuilder::new(params()).seed(seed).build()
    }

    #[test]
    fn output_width_matches_params() {
        assert_eq!(dnc(3).step(&[0.1; 5]).len(), 6);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let (mut a, mut b) = (dnc(11), dnc(11));
        for t in 0..5 {
            let x: Vec<f32> = (0..5).map(|i| ((t * 5 + i) as f32 * 0.3).sin()).collect();
            assert_eq!(a.step(&x), b.step(&x), "t={t}");
        }
    }

    #[test]
    fn different_seeds_give_different_models() {
        assert_ne!(dnc(1).step(&[0.5; 5]), dnc(2).step(&[0.5; 5]));
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        let mut dnc = dnc(5);
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
        let mut dnc = dnc(9);
        let y1 = dnc.step(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let y2 = dnc.step(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_ne!(y1, y2, "same input must give different output once state evolves");
    }

    #[test]
    fn invariants_hold_through_a_long_run() {
        let mut dnc = dnc(13);
        for t in 0..60 {
            let x: Vec<f32> = (0..5).map(|i| ((t * 3 + i * 7) as f32 * 0.11).cos()).collect();
            dnc.step(&x);
            assert!(dnc.unit(0, 0).check_invariants(1e-3), "t={t}");
        }
    }

    #[test]
    fn profile_includes_controller_and_memory() {
        let mut dnc = EngineBuilder::new(params()).seed(4).profiling(true).build();
        dnc.step(&[0.2; 5]);
        let p = dnc.profile();
        assert_eq!(p.calls(KernelId::Lstm), 1);
        assert_eq!(p.calls(KernelId::Projection), 2, "interface + output");
        assert!(p.calls(KernelId::MemoryRead) > 0);
    }

    #[test]
    fn hardware_features_are_close_to_exact() {
        let mut exact = dnc(17);
        let mut hw = EngineBuilder::new(params())
            .skim(SkimRate::new(0.2))
            .approx_softmax(true)
            .seed(17)
            .build();
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
