//! [`EngineBuilder`]: one constructor over every engine variant.
//!
//! The builder composes **orthogonal axes** — mirroring how the HiMA
//! hardware itself is one engine with configuration knobs:
//!
//! * **topology** — [`Topology::Monolithic`] (centralized DNC) or
//!   [`Topology::Sharded`] (`N_t`-tile DNC-D with a [`ReadMerge`] policy),
//! * **lanes** — how many independent sequences run through the shared
//!   weights ([`EngineBuilder::lanes`]),
//! * **datapath** — [`Datapath::F32`] or a fixed-point
//!   [`Datapath::Quantized`] format: a rounding policy of the one
//!   [`MemoryUnit`](crate::MemoryUnit), not a second unit type,
//! * plus the memory-unit feature knobs (skimming, PLA softmax) and the
//!   weight seed.
//!
//! Every combination builds the same concrete type, a [`GridEngine`], so
//! harnesses sweep every axis from one code path.
//!
//! # Example
//!
//! ```
//! use hima_dnc::{DncParams, EngineBuilder};
//! use hima_tensor::{Matrix, QFormat};
//!
//! let params = DncParams::new(64, 8, 2).with_io(4, 4);
//! let mut engine = EngineBuilder::new(params)
//!     .sharded(4)
//!     .lanes(32)
//!     .quantized(QFormat::q16_16())
//!     .seed(7)
//!     .build();
//! let y = engine.step_batch(&Matrix::zeros(32, 4));
//! assert_eq!(y.shape(), (32, 4));
//! ```

use crate::allocation::SkimRate;
use crate::batch::GridEngine;
use crate::distributed::ReadMerge;
use crate::dnc::ModelInit;
use crate::memory::MemoryConfig;
use crate::DncParams;
use hima_tensor::{Backend, QFormat};

/// A built engine, as [`EngineBuilder::build`] hands it out.
pub type BoxedEngine = Box<GridEngine>;

/// Typed validation error for engine geometry and spec axes.
///
/// The panicking constructors ([`DncParams::new`],
/// [`EngineBuilder::sharded`], [`QFormat::new`], …) are the right
/// contract for in-process callers — a zero-row memory is a programming
/// bug. A *server* boundary receives these numbers from untrusted
/// clients, so [`DncParams::check`] and [`EngineSpec::check`] report the
/// same invariants as values instead of panics; `hima-serve` runs both
/// on every session spec before it builds an engine and turns a failure
/// into a structured error reply.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A geometry dimension (`memory_size`, `word_size`, `read_heads`,
    /// `hidden_size`, `input_size`, `output_size`) is zero.
    ZeroDimension(&'static str),
    /// The sharded topology was asked for zero tiles.
    ZeroTiles,
    /// More shards than memory rows — at least one shard would own no
    /// rows.
    TilesExceedMemoryRows {
        /// Requested shard count `N_t`.
        tiles: usize,
        /// Available memory rows `N`.
        rows: usize,
    },
    /// A fixed-point format violating the ≤32-bit datapath invariants
    /// (sign bit required, at least one fractional bit).
    InvalidQFormat {
        /// Integer bits, sign included.
        int_bits: u32,
        /// Fractional bits.
        frac_bits: u32,
    },
    /// A usage-skimming rate outside `[0, 1)`.
    InvalidSkimRate(f32),
    /// One lane's state or the engine's weight set would exceed a size
    /// limit (see [`DncParams::check_footprint`]).
    TooLarge {
        /// `"lane state"` or `"weight set"`.
        what: &'static str,
        /// Its size in bytes (`u64::MAX` when the count overflows).
        bytes: u64,
        /// The limit, in bytes.
        limit: u64,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::ZeroDimension(dim) => write!(f, "{dim} must be positive"),
            SpecError::ZeroTiles => write!(f, "need at least one tile"),
            SpecError::TilesExceedMemoryRows { tiles, rows } => {
                write!(f, "more tiles than memory rows ({tiles} tiles over {rows} rows)")
            }
            SpecError::InvalidQFormat { int_bits, frac_bits } => write!(
                f,
                "invalid Q{int_bits}.{frac_bits}: need a sign bit, a fractional bit and at most 32 bits total"
            ),
            SpecError::InvalidSkimRate(k) => {
                write!(f, "skim rate must be in [0,1), got {k}")
            }
            SpecError::TooLarge { what, bytes, limit } => {
                write!(f, "{what} of {bytes} bytes exceeds the {limit}-byte limit")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Memory-engine topology: one memory, or `N_t` independent shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Centralized DNC: one memory unit with global usage sort and
    /// linkage.
    Monolithic,
    /// Distributed DNC-D (paper §5.1): `tiles` row-wise shards, each
    /// running the full soft write + soft read locally, with shard reads
    /// merged by a [`ReadMerge`] weighting (Eq. 4).
    Sharded {
        /// Number of distributed shards `N_t`.
        tiles: usize,
    },
}

/// Numeric datapath of the engine's memory units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Datapath {
    /// IEEE-754 single precision (the functional reference).
    F32,
    /// Fixed-point: every interface-vector field is rounded on arrival
    /// and all stored state after each step, as in a hardware datapath.
    Quantized(QFormat),
}

impl Datapath {
    /// Human-readable label, e.g. `"f32"` or `"Q16.16"`.
    pub fn label(&self) -> String {
        match self {
            Datapath::F32 => "f32".to_string(),
            Datapath::Quantized(q) => q.label(),
        }
    }
}

/// The serializable axes of an [`EngineBuilder`]: everything that defines
/// a model variant except the hyper-parameters, lane count and seed
/// (which are runtime concerns of a particular run).
///
/// Configuration types such as
/// [`EvalConfig`](../hima_tasks/eval/struct.EvalConfig.html) carry an
/// `EngineSpec` instead of a bare tile count, so a harness config can name
/// *any* engine variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineSpec {
    /// Memory topology.
    pub topology: Topology,
    /// Numeric datapath.
    pub datapath: Datapath,
    /// Usage-skimming rate `K` applied inside every memory unit.
    pub skim: SkimRate,
    /// Whether the PLA+LUT softmax approximation is enabled.
    pub approx_softmax: bool,
    /// An inert label, stored and read back (the wire spec's `blocked`
    /// bit, the `HLSS` config byte and the store manifests carry it): it
    /// selects nothing — see [`Backend`]. Defaults to [`Backend::Scalar`].
    pub backend: Backend,
}

impl Default for EngineSpec {
    fn default() -> Self {
        Self::monolithic()
    }
}

impl EngineSpec {
    /// Exact centralized configuration: monolithic, f32, no
    /// approximations.
    pub fn monolithic() -> Self {
        Self {
            topology: Topology::Monolithic,
            datapath: Datapath::F32,
            skim: SkimRate::NONE,
            approx_softmax: false,
            backend: Backend::Scalar,
        }
    }

    /// `tiles`-shard DNC-D configuration, f32, no approximations.
    pub fn sharded(tiles: usize) -> Self {
        Self { topology: Topology::Sharded { tiles }, ..Self::monolithic() }
    }

    /// Overrides the datapath.
    pub fn with_datapath(mut self, datapath: Datapath) -> Self {
        self.datapath = datapath;
        self
    }

    /// Overrides the skimming rate.
    pub fn with_skim(mut self, skim: SkimRate) -> Self {
        self.skim = skim;
        self
    }

    /// Stores the [`Backend`] label (which selects nothing).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Validates the spec against a model geometry without panicking —
    /// the server-boundary twin of the asserting builder methods. Checks
    /// the shard count against the memory rows, the fixed-point format's
    /// bit widths and the skimming rate. `params` itself is validated by
    /// [`DncParams::check`].
    pub fn check(&self, params: &DncParams) -> Result<(), SpecError> {
        match self.topology {
            Topology::Monolithic => {}
            Topology::Sharded { tiles } => {
                if tiles == 0 {
                    return Err(SpecError::ZeroTiles);
                }
                if tiles > params.memory_size {
                    return Err(SpecError::TilesExceedMemoryRows {
                        tiles,
                        rows: params.memory_size,
                    });
                }
            }
        }
        if let Datapath::Quantized(q) = self.datapath {
            if QFormat::checked(q.int_bits, q.frac_bits).is_none() {
                return Err(SpecError::InvalidQFormat {
                    int_bits: q.int_bits,
                    frac_bits: q.frac_bits,
                });
            }
        }
        let k = self.skim.fraction();
        if SkimRate::checked(k).is_none() {
            return Err(SpecError::InvalidSkimRate(k));
        }
        Ok(())
    }

    /// The shard count: 1 for monolithic, `N_t` for sharded.
    pub fn tiles(&self) -> usize {
        match self.topology {
            Topology::Monolithic => 1,
            Topology::Sharded { tiles } => tiles,
        }
    }

    /// Human-readable label, e.g. `"monolithic/f32"` or
    /// `"sharded(4)/Q16.16"`.
    pub fn label(&self) -> String {
        let topo = match self.topology {
            Topology::Monolithic => "monolithic".to_string(),
            Topology::Sharded { tiles } => format!("sharded({tiles})"),
        };
        format!("{topo}/{}", self.datapath.label())
    }
}

/// Composable constructor for every [`GridEngine`] configuration.
///
/// See the [module docs](self) for the axis overview and an example.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    params: DncParams,
    spec: EngineSpec,
    lanes: usize,
    merge: Option<ReadMerge>,
    seed: u64,
    profiling: bool,
}

impl EngineBuilder {
    /// Starts from the exact centralized configuration: monolithic
    /// topology, one lane, f32 datapath, seed 0.
    pub fn new(params: DncParams) -> Self {
        Self {
            params,
            spec: EngineSpec::monolithic(),
            lanes: 1,
            merge: None,
            seed: 0,
            profiling: false,
        }
    }

    /// Selects the `tiles`-shard DNC-D topology.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero or exceeds the memory rows.
    pub fn sharded(mut self, tiles: usize) -> Self {
        assert!(tiles > 0, "need at least one tile");
        assert!(tiles <= self.params.memory_size, "more tiles than memory rows");
        self.spec.topology = Topology::Sharded { tiles };
        self
    }

    /// Sets the number of batch lanes `B`.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn lanes(mut self, batch: usize) -> Self {
        assert!(batch > 0, "need at least one batch lane");
        self.lanes = batch;
        self
    }

    /// Selects the numeric datapath.
    pub fn datapath(mut self, datapath: Datapath) -> Self {
        self.spec.datapath = datapath;
        self
    }

    /// Shorthand for a fixed-point datapath in the given format.
    pub fn quantized(self, format: QFormat) -> Self {
        self.datapath(Datapath::Quantized(format))
    }

    /// Enables usage skimming at rate `K` inside every memory unit.
    pub fn skim(mut self, skim: SkimRate) -> Self {
        self.spec.skim = skim;
        self
    }

    /// Enables the PLA+LUT softmax approximation.
    pub fn approx_softmax(mut self, on: bool) -> Self {
        self.spec.approx_softmax = on;
        self
    }

    /// Stores the [`Backend`] label (which selects nothing).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.spec.backend = backend;
        self
    }

    /// Sets the read-merge weights for a sharded engine (defaults to the
    /// uniform merge). Ignored by monolithic topologies.
    pub fn merge(mut self, merge: ReadMerge) -> Self {
        self.merge = Some(merge);
        self
    }

    /// Sets the weight seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches wall-clock [`KernelProfile`](crate::KernelProfile)
    /// sampling on for the built engine. Defaults to **off**: an
    /// unprofiled engine's steps never call `Instant::now()`, so the
    /// serving hot path pays nothing for instrumentation it isn't using.
    /// The offline runtime breakdown (`hima_cli run fig4`) switches it
    /// on.
    pub fn profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Applies a serialized [`EngineSpec`] (topology, datapath, skim,
    /// approximation), keeping the params, lanes and seed.
    pub fn with_spec(mut self, spec: EngineSpec) -> Self {
        self.spec = spec;
        self
    }

    /// The builder's current serializable spec.
    pub fn spec(&self) -> EngineSpec {
        self.spec
    }

    /// The model hyper-parameters.
    pub fn params(&self) -> &DncParams {
        &self.params
    }

    /// Fits DNC-D read-merge weights `α` against the centralized model
    /// with the same weights (least squares over `inputs`; see
    /// [`ReadMerge::calibrate`]): a one-lane exact monolithic grid gives
    /// the target reads, a one-lane sharded grid with this spec's
    /// skimming and softmax and the uniform merge gives the shard reads.
    /// Returns `None` for monolithic topologies or empty input.
    ///
    /// Calibration always runs on the f32 pair — it determines the merge
    /// *weights*, which a quantized engine then rounds through its own
    /// datapath at inference.
    pub(crate) fn calibrate_merge(&self, inputs: &[Vec<f32>]) -> Option<ReadMerge> {
        let Topology::Sharded { tiles } = self.spec.topology else {
            return None;
        };
        if inputs.is_empty() {
            return None;
        }
        let mut centralized = EngineBuilder::new(self.params).seed(self.seed).build();
        let mut sharded = EngineBuilder::new(self.params)
            .sharded(tiles)
            .skim(self.spec.skim)
            .approx_softmax(self.spec.approx_softmax)
            .seed(self.seed)
            .build();
        let samples: Vec<_> = inputs
            .iter()
            .map(|x| {
                centralized.step(x);
                sharded.step(x);
                let shard_reads = sharded.shard_reads(0).map(<[f32]>::to_vec).collect();
                (shard_reads, centralized.last_read_row(0).to_vec())
            })
            .collect();
        Some(ReadMerge::calibrate(&samples, tiles))
    }

    /// Returns a builder whose merge weights are calibrated on `inputs`
    /// (no-op for monolithic topologies or empty input).
    pub fn calibrated(self, inputs: &[Vec<f32>]) -> Self {
        match self.calibrate_merge(inputs) {
            Some(m) => self.merge(m),
            None => self,
        }
    }

    /// Builds the engine.
    ///
    /// Weights and shard layout come from the one initializer the
    /// sequential reference (`hima_testkit::reference::Dnc`) draws from
    /// too, so an f32 build is bit-compatible with it at the same spec
    /// and seed (conformance-tested in `crates/dnc/tests/conformance.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the merge weights' shard count disagrees with the
    /// topology.
    pub fn build(&self) -> BoxedEngine {
        // The monolithic topology is the one-shard grid with no merge; a
        // sharded one merges uniformly unless told otherwise.
        let (tiles, merge) = match self.spec.topology {
            Topology::Monolithic => (1, None),
            Topology::Sharded { tiles } => {
                (tiles, Some(self.merge.clone().unwrap_or_else(|| ReadMerge::uniform(tiles))))
            }
        };
        let mem_cfg = MemoryConfig::new(
            self.params.memory_size,
            self.params.word_size,
            self.params.read_heads,
        )
        .with_skim(self.spec.skim)
        .with_approx_softmax(self.spec.approx_softmax)
        .with_backend(self.spec.backend);
        Box::new(GridEngine::new(
            ModelInit::new(self.params, mem_cfg, tiles, self.seed),
            merge,
            self.lanes,
            self.spec.datapath,
            self.profiling,
        ))
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use hima_tensor::Matrix;

    fn params() -> DncParams {
        DncParams::new(16, 4, 1).with_hidden(16).with_io(4, 4)
    }

    #[test]
    fn spec_round_trips_through_builder() {
        let spec = EngineSpec::sharded(4)
            .with_datapath(Datapath::Quantized(QFormat::q8_8()))
            .with_skim(SkimRate::new(0.2));
        let b = EngineBuilder::new(params()).with_spec(spec);
        assert_eq!(b.spec(), spec);
        assert_eq!(spec.tiles(), 4);
        assert_eq!(spec.label(), "sharded(4)/Q8.8");
        assert_eq!(EngineSpec::default().label(), "monolithic/f32");
    }

    #[test]
    fn builds_every_axis_combination() {
        for spec in [
            EngineSpec::monolithic(),
            EngineSpec::sharded(2),
            EngineSpec::monolithic().with_datapath(Datapath::Quantized(QFormat::q16_16())),
            EngineSpec::sharded(4).with_datapath(Datapath::Quantized(QFormat::q16_16())),
        ] {
            let mut engine =
                EngineBuilder::new(params()).with_spec(spec).lanes(2).seed(3).build();
            let y = engine.step_batch(&Matrix::zeros(2, 4));
            assert_eq!(y.shape(), (2, 4), "{}", spec.label());
            assert_eq!(engine.batch(), 2);
        }
    }

    #[test]
    fn merge_weights_reach_the_sharded_engine() {
        let m = ReadMerge::from_weights(vec![1.0, 0.0]);
        let mut custom =
            EngineBuilder::new(params()).sharded(2).merge(m).seed(5).build();
        let mut uniform = EngineBuilder::new(params()).sharded(2).seed(5).build();
        let x = Matrix::filled(1, 4, 0.5);
        for _ in 0..3 {
            let a = custom.step_batch(&x);
            let b = uniform.step_batch(&x);
            assert_eq!(a.shape(), b.shape());
        }
        assert_ne!(
            custom.last_read_rows().row(0),
            uniform.last_read_rows().row(0),
            "merge policy must change the merged read"
        );
    }

    #[test]
    fn calibrated_builder_recovers_single_shard_identity() {
        // A 1-shard DNC-D is the centralized model; calibration must find
        // alpha ≈ 1 and make the sharded engine track the monolithic one.
        let inputs: Vec<Vec<f32>> =
            (0..24).map(|t| (0..4).map(|i| ((t * 3 + i) as f32 * 0.21).sin()).collect()).collect();
        let sharded = EngineBuilder::new(params()).sharded(1).seed(9);
        let merge = sharded.calibrate_merge(&inputs).expect("sharded + inputs");
        assert!((merge.alphas[0] - 1.0).abs() < 1e-3, "{:?}", merge.alphas);
        assert!(EngineBuilder::new(params()).seed(9).calibrate_merge(&inputs).is_none());
        assert!(sharded.calibrate_merge(&[]).is_none());
    }

    #[test]
    fn backend_axis_reaches_every_topology() {
        use hima_tensor::Backend;
        // The label is stored by each of its setters and read back, names
        // nothing in `label()`, and selects nothing: the labelled engine
        // is the default one bit for bit (the full grid is
        // tests/backend_conformance.rs).
        let labelled = EngineSpec::monolithic().with_backend(Backend::Blocked);
        assert_eq!(labelled.backend, Backend::Blocked);
        assert_eq!(labelled.label(), "monolithic/f32");
        assert_eq!(EngineSpec::monolithic().backend, Backend::Scalar, "scalar is the default");
        assert_eq!(EngineBuilder::new(params()).backend(Backend::Blocked).spec(), labelled);

        let x = Matrix::from_fn(2, 4, |b, i| ((b * 4 + i) as f32 * 0.31).sin());
        for spec in [EngineSpec::monolithic(), EngineSpec::sharded(2)] {
            let mut scalar =
                EngineBuilder::new(params()).with_spec(spec).lanes(2).seed(5).build();
            let mut blocked = EngineBuilder::new(params())
                .with_spec(spec.with_backend(Backend::Blocked))
                .lanes(2)
                .seed(5)
                .build();
            for t in 0..4 {
                let bits = |y: Matrix| y.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(scalar.step_batch(&x)), bits(blocked.step_batch(&x)), "t={t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "more tiles than memory rows")]
    fn rejects_oversharding_early() {
        let _ = EngineBuilder::new(params()).sharded(64);
    }

    #[test]
    #[should_panic(expected = "need at least one batch lane")]
    fn rejects_zero_lanes() {
        let _ = EngineBuilder::new(params()).lanes(0);
    }

    /// The non-panicking validation a server boundary runs: every
    /// malformed geometry it can receive comes back from
    /// [`DncParams::check`] or [`EngineSpec::check`] as the matching
    /// typed [`SpecError`] instead of a panic, and a spec both admit
    /// builds.
    #[test]
    fn checks_report_typed_spec_errors() {
        let p = params();

        // Malformed hyper-parameters (fields are public, so a wire
        // decoder can assemble them literally).
        let mut zero_mem = p;
        zero_mem.memory_size = 0;
        assert_eq!(zero_mem.check(), Err(SpecError::ZeroDimension("memory_size")));

        // Topology errors.
        let mut spec = EngineSpec::sharded(0);
        assert_eq!(spec.check(&p), Err(SpecError::ZeroTiles));
        spec = EngineSpec::sharded(p.memory_size + 1);
        assert_eq!(
            spec.check(&p),
            Err(SpecError::TilesExceedMemoryRows { tiles: p.memory_size + 1, rows: p.memory_size })
        );

        // Datapath errors (QFormat fields are public for wire decoding).
        let bad = QFormat { int_bits: 0, frac_bits: 8 };
        let spec = EngineSpec::monolithic().with_datapath(Datapath::Quantized(bad));
        assert_eq!(
            spec.check(&p),
            Err(SpecError::InvalidQFormat { int_bits: 0, frac_bits: 8 })
        );
        let wide = QFormat { int_bits: 20, frac_bits: 20 };
        assert!(EngineSpec::monolithic()
            .with_datapath(Datapath::Quantized(wide))
            .check(&p)
            .is_err());

        // A valid composite spec passes both checks, builds and steps.
        let builder =
            EngineBuilder::new(p).sharded(4).lanes(2).quantized(QFormat::new(16, 16)).seed(3);
        assert_eq!(p.check(), Ok(()));
        assert_eq!(builder.spec().check(&p), Ok(()));
        let mut engine = builder.build();
        assert_eq!(engine.step_batch(&Matrix::zeros(2, 4)).shape(), (2, 4));
    }

    /// Every shard count a spec check admits builds, and splits the rows
    /// as evenly as they go: no empty shard, no row lost or invented.
    #[test]
    fn every_admitted_shard_count_splits_the_rows_evenly() {
        for n in 1..=33usize {
            let p = DncParams::new(n, 2, 1).with_hidden(4).with_io(2, 2);
            for tiles in 1..=n {
                let spec = EngineSpec::sharded(tiles);
                spec.check(&p).unwrap_or_else(|e| panic!("N={n} tiles={tiles}: {e}"));
                let engine = EngineBuilder::new(p).with_spec(spec).build();
                let rows: Vec<usize> =
                    (0..tiles).map(|s| engine.unit(0, s).config().memory_size).collect();
                assert_eq!(rows.iter().sum::<usize>(), n, "N={n} tiles={tiles}: {rows:?}");
                let (min, max) = (rows.iter().min().unwrap(), rows.iter().max().unwrap());
                assert!(*min >= 1 && max - min <= 1, "N={n} tiles={tiles}: {rows:?}");
            }
        }
    }

    #[test]
    fn spec_errors_render_actionable_messages() {
        assert_eq!(
            SpecError::ZeroDimension("word_size").to_string(),
            "word_size must be positive"
        );
        assert_eq!(
            SpecError::TilesExceedMemoryRows { tiles: 64, rows: 16 }.to_string(),
            "more tiles than memory rows (64 tiles over 16 rows)"
        );
        assert!(SpecError::InvalidQFormat { int_bits: 0, frac_bits: 33 }
            .to_string()
            .contains("Q0.33"));
        assert!(SpecError::InvalidSkimRate(1.5).to_string().contains("1.5"));
    }
}
