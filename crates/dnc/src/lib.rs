//! Functional Differentiable Neural Computer (DNC) model, plus the
//! distributed **DNC-D** variant introduced by the HiMA paper (§5.1), as
//! one batched engine.
//!
//! The DNC (Graves et al., *Nature* 2016) couples an LSTM controller to an
//! external memory matrix `M ∈ R^{N×W}` accessed through *soft* read and
//! write heads. HiMA's contribution is a hardware engine for the memory
//! unit; this crate is the bit-exact functional model the engine is verified
//! against, organized kernel-by-kernel exactly as the paper's dataflow
//! (Fig. 2):
//!
//! * content-based addressing ([`content`]) — normalize + similarity,
//! * history-based write weighting ([`usage`], [`allocation`]) — retention,
//!   usage update, usage sort, allocation,
//! * history-based read weighting ([`linkage`]) — temporal linkage matrix,
//!   precedence, forward/backward,
//! * the one memory unit gluing them together ([`memory`]) — `f32`, or
//!   fixed-point as a rounding policy of the same unit ([`quantized`]),
//! * the LSTM controller and interface vector ([`lstm`], [`interface`]),
//!   and DNC-D's read merge ([`distributed`]),
//! * the one batched lane × shard engine ([`batch`], [`GridEngine`]) and
//!   the composable constructor ([`builder`]) that sizes it — monolithic
//!   (the centralized DNC) or sharded (DNC-D) topology × batch lanes × f32
//!   or fixed-point datapath — with pre-sized scratch that makes
//!   steady-state stepping zero-heap-allocation (the `_into` entry points;
//!   the allocating ones are thin wrappers); a session detached from a
//!   lane ([`LaneState`]) is its state memories only, and [`persist`] is
//!   their byte format,
//! * per-kernel instrumentation ([`profile`]) used to regenerate the
//!   paper's runtime-breakdown figures.
//!
//! # Example
//!
//! The builder composes orthogonal axes instead of bespoke per-variant
//! constructors:
//!
//! ```
//! use hima_dnc::{DncParams, EngineBuilder};
//! use hima_tensor::Matrix;
//!
//! let params = DncParams::new(32, 8, 2).with_io(4, 4);
//! // A 4-shard DNC-D serving 3 lanes through shared weights.
//! let mut engine = EngineBuilder::new(params).sharded(4).lanes(3).seed(42).build();
//! let y = engine.step_batch(&Matrix::zeros(3, 4));
//! assert_eq!(y.shape(), (3, 4));
//! ```
//!
//! One lane of the centralized DNC, stepped a sequence at a time, with its
//! memory open for inspection:
//!
//! ```
//! use hima_dnc::{DncParams, EngineBuilder};
//!
//! let params = DncParams::new(32, 8, 2).with_io(4, 4);
//! let mut dnc = EngineBuilder::new(params).seed(42).build();
//! let y1 = dnc.step(&[0.5, -0.5, 1.0, 0.0]);
//! let y2 = dnc.step(&[0.5, -0.5, 1.0, 0.0]);
//! assert_ne!(y1, y2, "memory state makes steps differ");
//! assert!(dnc.unit(0, 0).check_invariants(1e-3));
//! ```

pub mod allocation;
pub mod batch;
pub mod builder;
pub mod content;
mod dnc;
pub mod distributed;
pub mod interface;
pub mod linkage;
pub mod lstm;
pub mod memory;
pub mod persist;
pub mod profile;
pub mod quantized;
pub mod usage;

pub use batch::{GridEngine, LaneState};
pub use builder::{BoxedEngine, Datapath, EngineBuilder, EngineSpec, SpecError, Topology};
pub use distributed::ReadMerge;
pub use interface::InterfaceVector;
pub use lstm::{LstmScratch, PackedLstm};
pub use memory::{MemoryConfig, MemoryUnit};
pub use persist::StateCodecError;
pub use profile::{KernelCategory, KernelId, KernelProfile};
// What the sequential reference in `hima-testkit` draws its weights from.
#[doc(hidden)]
pub use crate::dnc::{ModelInit, WeightBlock};
pub use quantized::{DatapathStudy, QuantizedMemoryUnit};
// The lane-activity mask consumed by `GridEngine::step_batch_masked`,
// re-exported so engine users need not depend on hima-tensor directly.
pub use hima_tensor::LaneMask;

/// Model hyper-parameters of every engine variant.
///
/// The paper's reference configuration for the bAbI experiments is
/// `N × W = 1024 × 64` with `R` read heads and a 1-layer LSTM of width 256;
/// [`DncParams::paper_babi`] constructs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DncParams {
    /// External memory rows `N` (number of memory slots).
    pub memory_size: usize,
    /// Word width `W` (columns of `M`).
    pub word_size: usize,
    /// Number of parallel read heads `R`.
    pub read_heads: usize,
    /// LSTM controller hidden width.
    pub hidden_size: usize,
    /// Model input width.
    pub input_size: usize,
    /// Model output width.
    pub output_size: usize,
}

impl DncParams {
    /// Creates parameters with the given memory geometry and read heads,
    /// with a default 64-wide controller and 8-wide input/output.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(memory_size: usize, word_size: usize, read_heads: usize) -> Self {
        let p = Self {
            memory_size,
            word_size,
            read_heads,
            hidden_size: 64,
            input_size: 8,
            output_size: 8,
        };
        p.validate();
        p
    }

    /// Overrides the controller hidden width.
    pub fn with_hidden(mut self, hidden: usize) -> Self {
        self.hidden_size = hidden;
        self.validate();
        self
    }

    /// Overrides input/output widths.
    pub fn with_io(mut self, input: usize, output: usize) -> Self {
        self.input_size = input;
        self.output_size = output;
        self.validate();
        self
    }

    /// The paper's bAbI configuration: `1024 × 64` memory, 4 read heads,
    /// 256-wide 1-layer LSTM.
    pub fn paper_babi() -> Self {
        Self::new(1024, 64, 4).with_hidden(256).with_io(64, 64)
    }

    /// Width of the interface vector `v^i`:
    /// `W·R + 3W + 5R + 3` (read keys, write key, erase, write vector,
    /// strengths, gates, read modes).
    pub fn interface_size(&self) -> usize {
        let (w, r) = (self.word_size, self.read_heads);
        w * r + 3 * w + 5 * r + 3
    }

    /// Validates the geometry without panicking — the server-boundary
    /// twin of the asserting constructors, reporting the first violated
    /// invariant as a typed [`SpecError`]. Params assembled through
    /// [`DncParams::new`] always pass; this exists for params assembled
    /// literally from untrusted numbers (the struct's fields are public).
    pub fn check(&self) -> Result<(), SpecError> {
        for (dim, value) in [
            ("memory_size", self.memory_size),
            ("word_size", self.word_size),
            ("read_heads", self.read_heads),
            ("hidden_size", self.hidden_size),
            ("input_size", self.input_size),
            ("output_size", self.output_size),
        ] {
            if value == 0 {
                return Err(SpecError::ZeroDimension(dim));
            }
        }
        Ok(())
    }

    /// Checks that one lane's state (the `f32`s `LaneState::encode`
    /// writes, plus its headers) and the engine's weight set (LSTM gates,
    /// one interface projection per shard, output projection; before
    /// panel padding) each stay within `limit` bytes over `tiles` shards.
    /// Both are counted in checked `u64` arithmetic, every shard at
    /// `⌈N / tiles⌉` rows, without building anything or calling
    /// [`interface_size`](Self::interface_size) (which can wrap): a
    /// geometry whose size overflows is reported as `u64::MAX` bytes.
    /// `tiles` must be non-zero ([`EngineSpec::check`] says so first).
    pub fn check_footprint(&self, tiles: usize, limit: u64) -> Result<(), SpecError> {
        let [n, w, r, h, i, o, t] = [
            self.memory_size,
            self.word_size,
            self.read_heads,
            self.hidden_size,
            self.input_size,
            self.output_size,
            tiles,
        ]
        .map(|d| d as u64);
        let rows = n.div_ceil(t);
        // Four bytes a term, each term a product of dimensions.
        let bytes = |terms: &[&[u64]]| {
            let term = |f: &&[u64]| f.iter().try_fold(4u64, |p, &d| p.checked_mul(d));
            terms.iter().try_fold(0u64, |sum, f| sum.checked_add(term(f)?)).unwrap_or(u64::MAX)
        };
        // Per shard: M, usage, linkage, precedence, write and read
        // weightings, its read row and 8 words of header; then the LSTM
        // state, the merged read row, the hidden row and the lane header.
        let state = bytes(&[
            &[t, rows, w], &[t, rows, rows], &[t, rows, 3], &[t, rows, r], &[t, r, w], &[t, 8],
            &[3, h], &[r, w], &[8],
        ]);
        // The LSTM gates and bias over `[x ; v_r ; h]`, one interface
        // projection of width `W·R + 3W + 5R + 3` from `[h ; x]` per
        // shard, and the output projection from `[h ; v_r]`.
        let weights = bytes(&[
            &[4, h, i], &[4, h, r, w], &[4, h, h], &[4, h],
            &[t, r, w, h], &[t, 3, w, h], &[t, 5, r, h], &[t, 3, h],
            &[t, r, w, i], &[t, 3, w, i], &[t, 5, r, i], &[t, 3, i],
            &[o, h], &[o, r, w],
        ]);
        for (what, bytes) in [("lane state", state), ("weight set", weights)] {
            if bytes > limit {
                return Err(SpecError::TooLarge { what, bytes, limit });
            }
        }
        Ok(())
    }

    fn validate(&self) {
        assert!(self.memory_size > 0, "memory_size must be positive");
        assert!(self.word_size > 0, "word_size must be positive");
        assert!(self.read_heads > 0, "read_heads must be positive");
        assert!(self.hidden_size > 0, "hidden_size must be positive");
        assert!(self.input_size > 0, "input_size must be positive");
        assert!(self.output_size > 0, "output_size must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_footprint_covers_an_encoded_lane_and_saturates_instead_of_wrapping() {
        // The served and paper shapes encode to 77 362 and 573 978 bytes
        // (`persist`'s layout test): the estimate covers each, within a
        // header's worth.
        let small = DncParams::new(128, 16, 2).with_hidden(64).with_io(16, 16);
        let paper = DncParams::new(1024, 64, 4).with_hidden(256).with_io(14, 14);
        for (p, tiles, encoded) in [(small, 1, 77_362u64), (paper, 16, 573_978)] {
            match p.check_footprint(tiles, encoded - 1) {
                Err(SpecError::TooLarge { what: "lane state", bytes, .. }) => {
                    assert!((encoded..encoded + 64).contains(&bytes), "{bytes} for {encoded}")
                }
                other => panic!("{other:?}"),
            }
            assert_eq!(p.check_footprint(tiles, 64 << 20), Ok(()));
        }
        // A wide controller is refused on its weights; dimensions whose
        // products wrap a `u64` count as `u64::MAX` bytes.
        let wide = DncParams::new(8, 4, 1).with_hidden(1 << 16);
        assert!(matches!(
            wide.check_footprint(1, 64 << 20),
            Err(SpecError::TooLarge { what: "weight set", .. })
        ));
        let d = u32::MAX as usize;
        let huge = DncParams {
            memory_size: d,
            word_size: d,
            read_heads: d,
            hidden_size: d,
            input_size: d,
            output_size: d,
        };
        let limit = u64::MAX - 1;
        let err = Err(SpecError::TooLarge { what: "lane state", bytes: u64::MAX, limit });
        assert_eq!(huge.check_footprint(1, limit), err);
    }

    #[test]
    fn interface_size_formula() {
        // W(R+3) + 5R + 3: for W=64, R=4 -> 64*7 + 20 + 3 = 471.
        let p = DncParams::new(1024, 64, 4);
        assert_eq!(p.interface_size(), 471);
        // Graves et al. use the same layout; cross-check a second shape.
        let p = DncParams::new(16, 8, 1);
        assert_eq!(p.interface_size(), 8 + 3 * 8 + 5 + 3);
    }

    #[test]
    fn paper_babi_configuration() {
        let p = DncParams::paper_babi();
        assert_eq!(p.memory_size, 1024);
        assert_eq!(p.word_size, 64);
        assert_eq!(p.read_heads, 4);
        assert_eq!(p.hidden_size, 256);
    }

    #[test]
    #[should_panic(expected = "memory_size must be positive")]
    fn rejects_zero_memory() {
        DncParams::new(0, 8, 1);
    }

    #[test]
    fn builders_compose() {
        let p = DncParams::new(8, 4, 2).with_hidden(32).with_io(5, 6);
        assert_eq!(p.hidden_size, 32);
        assert_eq!(p.input_size, 5);
        assert_eq!(p.output_size, 6);
    }
}
