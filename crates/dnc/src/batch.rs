//! [`GridEngine`]: the one batched, data-parallel execution engine.
//!
//! HiMA is one tiled engine sized by its configuration, and so is this
//! model of it: `B` independent lanes (sequences) run through the **same
//! weights**, each lane's memory split row-wise over `N_t` shards. The
//! centralized DNC is the `N_t = 1` corner of the distributed DNC-D
//! (paper §5.1), so one engine serves both topologies. Two structural
//! speedups over stepping `B` sequential models:
//!
//! 1. **Shared-weight batching** — the controller, interface and output
//!    projections become one `B × K` by `N × K`ᵀ product per step
//!    instead of `B` mat-vecs, over weights the engine holds **only**
//!    panel-packed ([`hima_tensor::PackedWeights`]: drawn straight into
//!    panels at build, never row-major, so that a panel row is loaded
//!    once for every lane of a group); the LSTM gates are then
//!    activated one fused pass per active lane
//!    ([`crate::lstm::PackedLstm::step_masked_into`]). The packed product
//!    keeps every output's `matvec` operation order, bit for bit.
//! 2. **Lane × shard data-parallelism** — every shard of every lane is
//!    independent of every other, so the whole `B × N_t` grid is **one**
//!    rayon task list per step (the 2-D decomposition mirroring the
//!    hardware tiling): a single sharded lane still fans out across
//!    threads.
//!
//! On the fixed-point [`Datapath`] every shard's [`MemoryUnit`] rounds its
//! inputs and stored state to the Q-format each step (the controller and
//! projections stay f32 — HiMA is the *memory-access* engine; the
//! controller lives outside it).
//!
//! **Ragged** batches step through a [`LaneMask`] naming the lanes still
//! inside their episodes: only those advance (masked rows of every kernel
//! are skipped, not zeroed-and-recomputed) and the rest stay frozen — so
//! unequal-length episodes share one lane grid, each lane dropping out as
//! its episode ends. The uniform `step_batch` is the fully-active special
//! case of the same kernel.
//!
//! The engine is **bit-compatible** with running its `B` lanes through
//! the sequential reference model (`hima_testkit::reference::Dnc`, which
//! multiplies the row-major weights by plain `matvec`): the packed
//! products use the same per-row accumulation order as `matvec`, and the
//! per-shard memory step is the very same [`MemoryUnit`] code.
//! `crates/dnc/tests/conformance.rs` asserts the equivalence over
//! topologies, widths and ragged lanes, and that a `B`-lane grid is `B`
//! one-lane grids across every topology × lanes × datapath combination;
//! the workspace-level `tests/ragged_conformance.rs` extends the masked
//! case.
//!
//! With profiling on, the grid stamps its own two costs next to the
//! memory units' kernel times — the controller step as
//! [`KernelId::Lstm`], the interface and output projections as
//! [`KernelId::Projection`] — so [`GridEngine::profile`] covers the
//! controller category too; with it off (the default) a step reads no
//! clock.
//!
//! Construct engines through [`EngineBuilder`](crate::EngineBuilder).

use crate::builder::Datapath;
use crate::distributed::ReadMerge;
use crate::dnc::{ModelInit, WeightBlock};
use crate::interface::InterfaceVector;
use crate::lstm::{LstmScratch, LstmState, PackedLstm};
use crate::memory::{MemoryConfig, MemoryUnit, UnitState};
use crate::profile::{KernelId, KernelProfile};
use crate::DncParams;
use hima_tensor::{LaneMask, Matrix, PackedWeights};
use rayon::prelude::*;

/// The least work one worker must be handed before a grid step fans its
/// shards out to threads: `f32` elements a shard's step touches,
/// `rows² + rows·W` per active shard, summed and divided by the workers.
///
/// Sized by measurement (PR 23, 2-vCPU host, unpinned, f32 datapath,
/// N = 128 W = 16 — 18 432 elements and ≈ 14 µs per shard step): the
/// vendored `rayon` spawns its workers per call, ≈ 30 µs for a scope of
/// two, so a two-lane tick that fanned out cost 105.8 µs against 40.1 µs
/// inline, and all-active grids of B = 8 / 16 / 24 / 32 / 64 / 128 ran at
/// 0.79 / 0.90 / 0.97 / 1.00 / 1.12 / 1.26 × of one thread. Fan-out
/// breaks even at B = 32 — 295k elements, ≈ 225 µs or eight spawns' worth
/// per worker — so it is taken from just above that.
const FAN_OUT_MIN_ELEMS_PER_WORKER: usize = 300_000;

/// One memory shard of a detached lane: which unit the state memories fit
/// (configuration and datapath) and the memories themselves.
#[derive(Debug, Clone)]
pub(crate) struct ShardState {
    pub(crate) config: MemoryConfig,
    pub(crate) datapath: Datapath,
    pub(crate) state: UnitState,
    /// The shard's flattened `R·W` read vector.
    pub(crate) read: Vec<f32>,
}

/// A detached snapshot of one batch lane's complete session state: the
/// lane's recurrent LSTM state (whose hidden row is the `h` the next
/// step's controller and a feature read consume — it is held nowhere
/// else), the state memories of each of its shards (external memory,
/// usage, linkage, read/write weightings — one shard for monolithic
/// engines, `N_t` for DNC-D) and the carried read-vector row. It is
/// **state only**: no memory unit, scratch buffer, PLA table or kernel
/// profile travels with a session — those belong to the lane it is
/// stepped on.
///
/// This is the **state-splice** currency of the serving layer:
/// [`GridEngine::export_lane`] detaches a session's state from a lane
/// grid, [`GridEngine::import_lane`] copies it into any lane of any
/// engine built from the *same* spec and hyper-parameters (weights are a
/// function of the seed alone, so lane slots are interchangeable), and
/// the round trip is bit-exact — a session swapped out of a grid and
/// back in continues precisely where it left off.
///
/// The fields are private: a `LaneState` is an opaque value that only an
/// engine of its geometry can consume. For durability it still crosses a
/// process boundary — [`LaneState::encode`]/[`LaneState::decode`] (in
/// [`crate::persist`]) are the versioned binary codec the session store
/// persists, bit-exact on every topology × datapath combination.
#[derive(Debug, Clone)]
pub struct LaneState {
    pub(crate) lstm: LstmState,
    pub(crate) shards: Vec<ShardState>,
    /// The lane's merged `R·W` read-vector row (`last_read`).
    pub(crate) read: Vec<f32>,
}

impl LaneState {
    /// The lane's merged `R·W` read-vector row — what `ReadRows` reports
    /// for the session while its state is detached from any grid.
    pub fn read_row(&self) -> &[f32] {
        &self.read
    }

    /// Heap footprint of the snapshot in `f32` elements — what a session
    /// cache pays to hold a detached session.
    pub fn state_elems(&self) -> usize {
        let shards =
            self.shards.iter().flat_map(|s| s.state.buffers().into_iter().chain([&s.read[..]]));
        shards.map(<[f32]>::len).sum::<usize>()
            + 2 * self.lstm.hidden.len()
            + self.read.len()
    }
}

/// One shard of one lane: the shard's memory unit, its last flattened
/// read vector and its reusable interface-parse scratch — the unit of
/// work of the 2-D (lane × shard) parallel decomposition. Shards step in
/// parallel, so per-shard scratch cannot live in the shared
/// [`StepWorkspace`].
#[derive(Debug, Clone)]
struct Shard {
    memory: MemoryUnit,
    read: Vec<f32>,
    iv: InterfaceVector,
}

/// The shared per-step scratch that makes steady-state stepping
/// **zero-heap-allocation**: the `hcat` feature blocks, the shared-weight
/// projection outputs and the LSTM gate blocks, sized once at
/// construction (an engine's geometry never changes) and reused across
/// steps and episodes — [`GridEngine::reset`] never drops it. The
/// `_into` entry points allocate nothing; the allocating ones allocate
/// only the returned output block (pinned by the counting-allocator
/// suite in `tests/zero_alloc.rs`).
#[derive(Debug, Clone)]
struct StepWorkspace {
    /// Controller input `[x_t ; v_r^{t-1}]`, `B × (I + R·W)`.
    ctrl_in: Matrix,
    /// Interface-projection input `[h_t ; x_t]`, `B × (H + I)`.
    iface_in: Matrix,
    /// Output-projection input `[h_t ; v_r]`, `B × (H + R·W)`.
    out_in: Matrix,
    /// Hidden-state block of the current step, `B × H`.
    hidden: Matrix,
    /// Raw interface emissions, one `B × interface_size` block per shard.
    raw_shards: Vec<Matrix>,
    /// Controller scratch (`[X ; H]` concatenation + pre-activations).
    lstm: LstmScratch,
    /// Cached fully-active mask so the uniform `step_batch` path does not
    /// rebuild one per step (taken and restored around the masked call).
    full_mask: LaneMask,
}

impl StepWorkspace {
    fn new(params: &DncParams, batch: usize, tiles: usize) -> Self {
        let read_width = params.read_heads * params.word_size;
        Self {
            ctrl_in: Matrix::zeros(batch, params.input_size + read_width),
            iface_in: Matrix::zeros(batch, params.hidden_size + params.input_size),
            out_in: Matrix::zeros(batch, params.hidden_size + read_width),
            hidden: Matrix::zeros(batch, params.hidden_size),
            raw_shards: vec![Matrix::zeros(batch, params.interface_size()); tiles],
            lstm: LstmScratch::sized(batch, params.input_size + read_width, params.hidden_size),
            full_mask: LaneMask::full(batch),
        }
    }
}

/// A lane's global read vector from its shard reads. A sharded lane
/// merges them by the weighted sum of Eq. 4; a monolithic lane's single
/// shard read *is* the global read and is copied verbatim — never
/// multiplied by `α = 1`, which would turn `-0.0` into `+0.0`.
fn gather_reads(merge: Option<&ReadMerge>, lane_shards: &[Shard], out: &mut [f32]) {
    match merge {
        Some(merge) => merge.merge_iter_into(lane_shards.iter().map(|s| s.read.as_slice()), out),
        None => out.copy_from_slice(&lane_shards[0].read),
    }
}

/// `B` independent lanes × `N_t` memory shards sharing one set of weights
/// (controller, per-shard interface projections, output projection and —
/// when sharded — the read-merge `α`).
///
/// [`Topology::Monolithic`](crate::Topology::Monolithic) is the `N_t = 1`
/// grid without a merge (the centralized DNC) and
/// [`Topology::Sharded`](crate::Topology::Sharded) the DNC-D; either way
/// lane `b` steps exactly as a one-lane engine fed lane `b`'s input
/// stream. Lanes start from blank (reset) state. Every method takes and
/// returns `B`-row blocks; [`GridEngine::step`] is the `B = 1`
/// convenience on top.
///
/// # Example
///
/// ```
/// use hima_dnc::{DncParams, EngineBuilder};
/// use hima_tensor::Matrix;
///
/// let params = DncParams::new(16, 4, 1).with_io(3, 3);
/// let mut batch = EngineBuilder::new(params).lanes(2).seed(7).build();
/// let x = Matrix::from_rows(&[&[1.0, 0.0, 0.0][..], &[0.0, 1.0, 0.0][..]]);
/// let y = batch.step_batch(&x);
/// assert_eq!(y.shape(), (2, 3));
///
/// // Lane 0 matches a one-lane engine fed lane 0's input, bit for bit.
/// let mut solo = EngineBuilder::new(params).seed(7).build();
/// assert_eq!(y.row(0), &solo.step(&[1.0, 0.0, 0.0])[..]);
/// ```
#[derive(Debug, Clone)]
pub struct GridEngine {
    params: DncParams,
    /// The shared weights, held only in panel-packed form (drawn straight
    /// into it; a row-major copy never exists).
    controller: PackedLstm,
    /// One interface projection per shard, shared across lanes.
    interface_projs: Vec<PackedWeights>,
    output_proj: PackedWeights,
    /// The read-merge of a sharded topology; `None` on the monolithic one
    /// (see [`gather_reads`]).
    merge: Option<ReadMerge>,
    /// What the grid itself times when profiling is on: the controller
    /// step ([`KernelId::Lstm`]) and the interface and output projections
    /// ([`KernelId::Projection`]); the memory units keep their own.
    profile: KernelProfile,
    lstm_states: Vec<LstmState>,
    /// The flat `B × N_t` shard grid, lane-major: lane `b`'s shards are
    /// `shards[b·N_t .. (b+1)·N_t]`. Flat storage *is* the 2-D parallel
    /// decomposition — one `par_iter_mut` over this slice is the per-step
    /// task list, with no per-step collection of task references.
    shards: Vec<Shard>,
    last_read: Matrix,
    ws: StepWorkspace,
}

impl GridEngine {
    /// `batch` blank lanes over `init`'s weights and shard layout.
    /// `merge` is `None` for the monolithic topology.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`, or if `merge` is absent over several
    /// shards or disagrees with their count.
    pub(crate) fn new(
        init: ModelInit,
        merge: Option<ReadMerge>,
        batch: usize,
        datapath: Datapath,
        profiling: bool,
    ) -> Self {
        let (params, shard_cfgs) = (init.params, &init.shard_cfgs);
        assert!(batch > 0, "need at least one batch lane");
        let tiles = shard_cfgs.len();
        assert_eq!(merge.as_ref().map_or(1, ReadMerge::shards), tiles, "merge shard count mismatch");
        let read_width = params.read_heads * params.word_size;
        let shards = (0..batch)
            .flat_map(|_| shard_cfgs)
            .map(|cfg| {
                let mut memory = MemoryUnit::with_datapath(*cfg, datapath);
                memory.set_profiling(profiling);
                Shard {
                    memory,
                    read: vec![0.0; read_width],
                    iv: InterfaceVector::zeroed(params.word_size, params.read_heads),
                }
            })
            .collect();
        let mut profile = KernelProfile::new();
        profile.set_enabled(profiling);
        let (input, hidden, lstm_seed) = init.controller();
        Self {
            params,
            // Drawn straight into panels: no row-major copy of any
            // weight matrix ever exists.
            controller: PackedLstm::new(input, hidden, lstm_seed),
            interface_projs: init.interface_projs().map(WeightBlock::packed).collect(),
            output_proj: init.output_proj().packed(),
            merge,
            profile,
            lstm_states: vec![LstmState::zeros(params.hidden_size); batch],
            shards,
            last_read: Matrix::zeros(batch, read_width),
            ws: StepWorkspace::new(&params, batch, tiles),
        }
    }

    /// Number of batch lanes `B`.
    pub fn batch(&self) -> usize {
        self.lstm_states.len()
    }

    /// Number of memory shards `N_t` per lane (1 when monolithic).
    pub fn tiles(&self) -> usize {
        self.interface_projs.len()
    }

    /// The model hyper-parameters.
    pub fn params(&self) -> &DncParams {
        &self.params
    }

    /// The numeric datapath of the shard memory units.
    pub fn datapath(&self) -> Datapath {
        self.shards[0].memory.datapath()
    }

    /// Shard `shard` of lane `lane`'s memory unit (for state inspection).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()` or `shard >= tiles()`.
    pub fn unit(&self, lane: usize, shard: usize) -> &MemoryUnit {
        &self.lane_shards(lane)[shard].memory
    }

    /// The interface vector shard `shard` of lane `lane` parsed at the
    /// last step that lane ran (zeroed before its first): the gates and
    /// keys the shard's memory unit was driven by. It is the lane's
    /// parse scratch, so a splice ([`GridEngine::swap_lane`] and friends)
    /// does not move it.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()` or `shard >= tiles()`.
    pub fn interface(&self, lane: usize, shard: usize) -> &InterfaceVector {
        &self.lane_shards(lane)[shard].iv
    }

    /// Lane `lane`'s per-shard read vectors of its last step, in shard
    /// order — what the merge (Eq. 4) combines.
    pub(crate) fn shard_reads(&self, lane: usize) -> impl Iterator<Item = &[f32]> {
        self.lane_shards(lane).iter().map(|s| s.read.as_slice())
    }

    /// The `B × R·W` block of read vectors fed to the controller at the
    /// next step (row `b` is lane `b`'s flattened — for DNC-D, merged —
    /// read vectors).
    pub fn last_read_rows(&self) -> Matrix {
        self.last_read.clone()
    }

    /// Lane `lane`'s last read vector, borrowed — the allocation-free
    /// accessor the per-step harness loops use (where
    /// [`GridEngine::last_read_rows`] would clone the whole block).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()`.
    pub fn last_read_row(&self, lane: usize) -> &[f32] {
        self.last_read.row(lane)
    }

    /// The `B × (H + R·W)` feature block `[h_t ; v_r]` per lane — what
    /// the output projection consumes, and what a trained readout
    /// regresses on.
    pub fn last_features_rows(&self) -> Matrix {
        let hidden: Vec<&[f32]> = self.lstm_states.iter().map(|s| &s.hidden[..]).collect();
        Matrix::hcat(&Matrix::from_rows(&hidden), &self.last_read)
    }

    /// Kernel profile of the grid's own controller and projection stamps
    /// plus every lane's shard memory units.
    pub fn profile(&self) -> KernelProfile {
        let mut p = self.profile.clone();
        for shard in &self.shards {
            p.merge(shard.memory.profile());
        }
        p
    }

    /// Switches wall-clock kernel sampling on or off for the grid's own
    /// stamps and every shard of every lane (see
    /// `KernelProfile::set_enabled`). Engines from
    /// [`EngineBuilder`](crate::EngineBuilder) default to **off** — steady
    /// state steps then never read the clock; opt in with
    /// [`EngineBuilder::profiling`](crate::EngineBuilder::profiling) or
    /// this method.
    pub fn set_profiling(&mut self, on: bool) {
        self.profile.set_enabled(on);
        for shard in &mut self.shards {
            shard.memory.set_profiling(on);
        }
    }

    /// Resets every lane's shard memories and recurrent state (weights
    /// and merge unchanged) **in place** — no buffer is reallocated, so
    /// reuse across episodes stays allocation-free.
    pub fn reset(&mut self) {
        for lane in 0..self.batch() {
            self.reset_lane(lane);
        }
    }

    /// Runs one time step for every lane: `inputs` is `B × input_size`
    /// (row `b` is lane `b`'s token) and the result is `B × output_size`.
    ///
    /// The controller and every shard's interface projection run as
    /// shared-weight products batched over all lanes; the `B × N_t` grid
    /// of shard memory units is then **one** parallel task list (each
    /// task is one shard of one lane), which keeps every worker busy even
    /// when `B < threads`; the per-lane shard reads are gathered (Eq. 4)
    /// deterministically afterwards.
    ///
    /// Allocating convenience over [`GridEngine::step_batch_into`] (the
    /// one allocation is the returned output block).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `B × input_size`.
    pub fn step_batch(&mut self, inputs: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(self.batch(), self.params.output_size);
        self.step_batch_into(inputs, &mut y);
        y
    }

    /// Output-buffer form of [`GridEngine::step_batch`]: the uniform
    /// (fully-active) step writing into `y` — **zero heap allocations**
    /// in the steady state, using the engine's cached full mask.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `B × input_size`.
    pub fn step_batch_into(&mut self, inputs: &Matrix, y: &mut Matrix) {
        // Validate caller input *before* taking the cached mask, so a
        // caller-triggered panic cannot strand the workspace with the
        // 0-lane placeholder.
        assert_eq!(inputs.rows(), self.batch(), "batch size mismatch");
        assert_eq!(inputs.cols(), self.params.input_size, "input width mismatch");
        // Borrow dance: the cached full mask cannot be borrowed while
        // `self` is, so take it (a move — no allocation) and put it back.
        let mask = std::mem::take(&mut self.ws.full_mask);
        self.step_batch_masked_into(inputs, &mask, y);
        self.ws.full_mask = mask;
    }

    /// Masked form of [`GridEngine::step_batch`] for ragged batches: only
    /// the lanes `mask` marks active advance — their controller rows,
    /// interface/output projection rows and shard memory units run
    /// exactly as in the uniform path — while an inactive lane's entire
    /// state (LSTM, shard memories, last read vector) stays **frozen**
    /// and its kernel rows are skipped, not zeroed-and-recomputed, so a
    /// lane whose episode has ended costs (almost) nothing. The input
    /// rows of inactive lanes are padding and never read.
    ///
    /// Active lanes are bit-identical to stepping each lane's episode
    /// alone through a single-lane engine (the ragged conformance
    /// property); a fully-active mask *is* [`GridEngine::step_batch`].
    /// Inactive rows of the returned output block are zero.
    ///
    /// Allocating convenience over [`GridEngine::step_batch_masked_into`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `B × input_size` or
    /// `mask.lanes() != B`.
    pub fn step_batch_masked(&mut self, inputs: &Matrix, mask: &LaneMask) -> Matrix {
        let mut y = Matrix::zeros(self.batch(), self.params.output_size);
        self.step_batch_masked_into(inputs, mask, &mut y);
        y
    }

    /// Output-buffer form of [`GridEngine::step_batch_masked`]: writes
    /// the `B × output_size` block into `y` (resized in place if its
    /// shape differs). Every transient comes from the engine's step
    /// workspace or the per-shard scratch, so the steady state performs
    /// **zero heap allocations** — and the result is bit-for-bit what the
    /// allocating form returns.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `B × input_size` or
    /// `mask.lanes() != B`.
    pub fn step_batch_masked_into(&mut self, inputs: &Matrix, mask: &LaneMask, y: &mut Matrix) {
        let (b, nt) = (self.batch(), self.tiles());
        assert_eq!(inputs.rows(), b, "batch size mismatch");
        assert_eq!(inputs.cols(), self.params.input_size, "input width mismatch");
        assert_eq!(mask.lanes(), b, "lane mask size mismatch");
        if y.shape() != (b, self.params.output_size) {
            *y = Matrix::zeros(b, self.params.output_size);
        }
        let fan_out = self.fans_out(mask);
        let ws = &mut self.ws;

        // Controller on [x_t ; v_r^{t-1}], all active lanes at once
        // (frozen lanes surface their held hidden state). Each staging
        // copy below fills the active rows only: the masked products
        // read nothing else.
        Matrix::hcat_masked_into(inputs, &self.last_read, mask, &mut ws.ctrl_in);
        let (controller, states) = (&self.controller, &mut self.lstm_states);
        self.profile.time(KernelId::Lstm, || {
            controller.step_masked_into(states, &ws.ctrl_in, mask, &mut ws.lstm, &mut ws.hidden)
        });

        // Interface projection (input skip connection): one batched
        // product per shard — each shard has its own interface weights
        // but shares them across lanes — over the active rows only.
        Matrix::hcat_masked_into(&ws.hidden, inputs, mask, &mut ws.iface_in);
        let projs = &self.interface_projs;
        self.profile.time(KernelId::Projection, || {
            for (proj, raw) in projs.iter().zip(ws.raw_shards.iter_mut()) {
                proj.matmul_masked_into(&ws.iface_in, mask, raw);
            }
        });

        // 2-D decomposition: the flat lane-major shard grid is the task
        // list; each task recovers its (b, s) coordinates from its index
        // and inactive lanes' shards return immediately. Each shard
        // parses into and steps through its own scratch, so the loop is
        // allocation-free on every worker.
        let (w, r) = (self.params.word_size, self.params.read_heads);
        let raws = &ws.raw_shards;
        let step_shard = |(i, shard): (usize, &mut Shard)| {
            let (bi, s) = (i / nt, i % nt);
            if !mask.is_active(bi) {
                return;
            }
            shard.iv.parse_into(raws[s].row(bi), w, r);
            shard.memory.step_into(&shard.iv, &mut shard.read);
        };
        if fan_out {
            // Enough work per worker to pay for its thread (`fans_out`).
            self.shards.par_iter_mut().enumerate().for_each(step_shard);
        } else {
            // The active shards, here, in the same order. Same task body,
            // so the same bits.
            for bi in mask.active_lanes() {
                for i in bi * nt..(bi + 1) * nt {
                    step_shard((i, &mut self.shards[i]));
                }
            }
        }

        // Gather shard reads per active lane straight into the lane's
        // last-read row — sequential and deterministic regardless of
        // task scheduling above.
        for bi in mask.active_lanes() {
            gather_reads(
                self.merge.as_ref(),
                &self.shards[bi * nt..(bi + 1) * nt],
                self.last_read.row_mut(bi),
            );
        }

        // Output projection over [h ; v_r], batched over the active rows
        // (inactive output rows stay zero).
        Matrix::hcat_masked_into(&ws.hidden, &self.last_read, mask, &mut ws.out_in);
        let output_proj = &self.output_proj;
        self.profile.time(KernelId::Projection, || output_proj.matmul_masked_into(&ws.out_in, mask, y));
    }

    /// Whether a step over `mask` hands its shards to worker threads:
    /// only when every worker would get at least
    /// [`FAN_OUT_MIN_ELEMS_PER_WORKER`] of work.
    fn fans_out(&self, mask: &LaneMask) -> bool {
        let nt = self.tiles();
        let shard_elems = |s: &Shard| {
            let c = s.memory.config();
            c.memory_size * (c.memory_size + c.word_size)
        };
        let work = mask.active_count() * self.shards[..nt].iter().map(shard_elems).sum::<usize>();
        let workers = rayon::current_num_threads().min(mask.active_count() * nt);
        workers > 1 && work >= workers * FAN_OUT_MIN_ELEMS_PER_WORKER
    }

    /// Runs a whole synchronized sequence: `steps[t]` is the `B ×
    /// input_size` block for time `t`; the result holds one `B ×
    /// output_size` block per step.
    pub fn run_sequence_batch(&mut self, steps: &[Matrix]) -> Vec<Matrix> {
        steps.iter().map(|x| self.step_batch(x)).collect()
    }

    /// `B = 1` convenience: steps the single lane on `input` and returns
    /// its output vector.
    ///
    /// # Panics
    ///
    /// Panics if the engine has more than one lane or `input` has the
    /// wrong width.
    pub fn step(&mut self, input: &[f32]) -> Vec<f32> {
        assert_eq!(self.batch(), 1, "step() is the B=1 convenience; use step_batch()");
        let y = self.step_batch(&Matrix::from_rows(&[input]));
        y.row(0).to_vec()
    }

    fn lane_shards(&self, lane: usize) -> &[Shard] {
        assert!(lane < self.batch(), "lane index out of range");
        let nt = self.tiles();
        &self.shards[lane * nt..(lane + 1) * nt]
    }

    fn lane_shards_mut(&mut self, lane: usize) -> &mut [Shard] {
        assert!(lane < self.batch(), "lane index out of range");
        let nt = self.tiles();
        &mut self.shards[lane * nt..(lane + 1) * nt]
    }

    /// Detaches a snapshot of lane `lane`'s complete session state: LSTM
    /// state (the hidden row included), every shard's state memories with
    /// its shard read vector, and the carried read row — the state-splice
    /// primitive a serving grid uses to park a session off the grid. The
    /// lane itself is untouched; re-attaching the snapshot with
    /// [`GridEngine::import_lane`] — to any lane of any engine built from
    /// the same spec/params/seed — is a bit-exact round trip. The snapshot
    /// is the only thing the call allocates.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()`.
    pub fn export_lane(&self, lane: usize) -> LaneState {
        LaneState {
            shards: self
                .lane_shards(lane)
                .iter()
                .map(|s| ShardState {
                    config: *s.memory.config(),
                    datapath: s.memory.datapath(),
                    state: s.memory.state().clone(),
                    read: s.read.clone(),
                })
                .collect(),
            lstm: self.lstm_states[lane].clone(),
            read: self.last_read.row(lane).to_vec(),
        }
    }

    /// Overwrites lane `lane`'s session state with a snapshot previously
    /// detached by [`GridEngine::export_lane`] (possibly from a different
    /// lane or a different engine of the same configuration), copying
    /// into the lane's existing buffers — no heap allocation. After the
    /// splice the lane steps bit-identically to the engine the snapshot
    /// was exported from. The lane's units keep their own scratch, kernel
    /// profile and profiling gate ([`GridEngine::set_profiling`]): a
    /// splice moves state memories, never machinery.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()` or the snapshot's geometry/datapath
    /// disagrees with this engine (shard count, per-shard memory config,
    /// Q-format, read/hidden widths).
    pub fn import_lane(&mut self, lane: usize, state: &LaneState) {
        self.assert_lane_fits(lane, state);
        for (dst, src) in self.lane_shards_mut(lane).iter_mut().zip(&state.shards) {
            dst.memory.load_state(&src.state);
            dst.read.copy_from_slice(&src.read);
        }
        let lstm = &mut self.lstm_states[lane];
        lstm.hidden.copy_from_slice(&state.lstm.hidden);
        lstm.cell.copy_from_slice(&state.lstm.cell);
        self.last_read.row_mut(lane).copy_from_slice(&state.read);
    }

    /// Exchanges lane `lane`'s session state with `state`: afterwards the
    /// lane holds the snapshot's session — exactly as after
    /// [`GridEngine::import_lane`] — and `state` holds the session the lane
    /// held — exactly what [`GridEngine::export_lane`] would have returned.
    /// A serving grid's park-and-splice in one call, **zero-copy**: every
    /// shard's state memories and read vector and the lane's LSTM state
    /// trade buffer headers; only the carried read row (`R·W` floats,
    /// which lives inside the engine's `B`-row block) is swapped element
    /// by element. No heap allocation. As with an import, scratch, kernel
    /// profile and profiling gate stay the lane's own.
    ///
    /// # Panics
    ///
    /// Panics, with `state` and the lane untouched, wherever
    /// [`GridEngine::import_lane`] would.
    pub fn swap_lane(&mut self, lane: usize, state: &mut LaneState) {
        self.assert_lane_fits(lane, state);
        for (dst, src) in self.lane_shards_mut(lane).iter_mut().zip(&mut state.shards) {
            dst.memory.swap_state(&mut src.state);
            std::mem::swap(&mut dst.read, &mut src.read);
        }
        std::mem::swap(&mut self.lstm_states[lane], &mut state.lstm);
        self.last_read.row_mut(lane).swap_with_slice(&mut state.read);
    }

    /// The geometry and datapath checks of a splice into lane `lane`.
    fn assert_lane_fits(&self, lane: usize, state: &LaneState) {
        assert_eq!(state.shards.len(), self.tiles(), "lane state shard count mismatch");
        assert_eq!(state.read.len(), self.last_read.cols(), "read width mismatch");
        assert_eq!(state.lstm.hidden.len(), self.params.hidden_size, "hidden width mismatch");
        for (dst, src) in self.lane_shards(lane).iter().zip(&state.shards) {
            assert_eq!(src.datapath, dst.memory.datapath(), "lane state datapath mismatch");
            assert_eq!(&src.config, dst.memory.config(), "memory config mismatch");
            assert_eq!(src.read.len(), dst.read.len(), "read width mismatch");
        }
    }

    /// Resets a *single* lane (all its shards, recurrent state and carried
    /// read row) to blank state, leaving every other lane untouched — how
    /// a serving grid recycles a freed lane slot for a fresh session.
    /// A reset lane steps bit-identically to a lane of a freshly built
    /// engine.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()`.
    pub fn reset_lane(&mut self, lane: usize) {
        for shard in self.lane_shards_mut(lane) {
            shard.memory.reset();
            shard.read.fill(0.0);
        }
        self.lstm_states[lane].clear();
        self.last_read.row_mut(lane).fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BoxedEngine, EngineBuilder};
    use hima_tensor::QFormat;

    fn params() -> DncParams {
        DncParams::new(16, 4, 2).with_hidden(24).with_io(5, 6)
    }

    /// A monolithic f32 grid.
    fn mono(batch: usize, seed: u64) -> BoxedEngine {
        EngineBuilder::new(params()).lanes(batch).seed(seed).build()
    }

    /// A sharded f32 grid.
    fn sharded(tiles: usize, batch: usize, seed: u64) -> BoxedEngine {
        EngineBuilder::new(params()).sharded(tiles).lanes(batch).seed(seed).build()
    }

    /// Stacks per-lane inputs for one time step into a `B × I` block.
    fn step_block(lanes: &[Vec<Vec<f32>>], t: usize) -> Matrix {
        let rows: Vec<&[f32]> = lanes.iter().map(|lane| lane[t].as_slice()).collect();
        Matrix::from_rows(&rows)
    }

    fn lane_inputs(batch: usize, steps: usize, width: usize) -> Vec<Vec<Vec<f32>>> {
        (0..batch)
            .map(|b| {
                (0..steps)
                    .map(|t| {
                        (0..width)
                            .map(|i| (((b * 131 + t * 17 + i * 7) as f32) * 0.13).sin())
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn reset_restores_blank_lanes() {
        let lanes = lane_inputs(2, 3, 5);
        let mut batched = mono(2, 9);
        let first = batched.step_batch(&step_block(&lanes, 0));
        for t in 1..3 {
            batched.step_batch(&step_block(&lanes, t));
        }
        batched.reset();
        let again = batched.step_batch(&step_block(&lanes, 0));
        assert_eq!(first, again);
    }

    #[test]
    fn builder_matches_direct_batched_construction() {
        // `EngineBuilder::build` is a mapping from the spec axes onto the
        // one constructor; pin that it stays bit-equal to calling that
        // constructor by hand, so the builder remains canonical.
        let x = Matrix::filled(2, 5, 0.25);
        let p = params();
        let cfg = MemoryConfig::new(p.memory_size, p.word_size, p.read_heads);
        let mut direct =
            GridEngine::new(ModelInit::new(p, cfg, 1, 31), None, 2, Datapath::F32, false);
        let mut built = mono(2, 31);
        assert_eq!(direct.step_batch(&x), built.step_batch(&x));

        let merge = Some(ReadMerge::uniform(4));
        let mut direct_d =
            GridEngine::new(ModelInit::new(p, cfg, 4, 31), merge, 2, Datapath::F32, false);
        let mut built_d = sharded(4, 2, 31);
        assert_eq!(direct_d.step_batch(&x), built_d.step_batch(&x));
    }

    #[test]
    fn profile_aggregates_all_lanes() {
        let mut batched = mono(3, 1);
        batched.set_profiling(true);
        let x = Matrix::zeros(3, 5);
        batched.step_batch(&x);
        let p = batched.profile();
        assert_eq!(p.calls(crate::profile::KernelId::MemoryRead), 3 * 2, "3 lanes × 2 heads");
    }

    #[test]
    fn dncd_profile_aggregates_lanes_and_shards() {
        let mut batched = sharded(4, 2, 1);
        batched.set_profiling(true);
        batched.step_batch(&Matrix::zeros(2, 5));
        let p = batched.profile();
        assert_eq!(
            p.calls(crate::profile::KernelId::MemoryRead),
            2 * 4 * 2,
            "2 lanes × 4 shards × 2 heads"
        );
    }

    /// The grid's own stamps: one controller step and two projection
    /// blocks (interface, output) per grid step whatever the lane, shard
    /// or active count — and only while profiling is on.
    #[test]
    fn grid_profile_stamps_the_controller_and_projections_per_step() {
        use crate::profile::{KernelCategory, KernelId};
        for mut engine in [mono(3, 1), sharded(4, 3, 1)] {
            let x = Matrix::filled(3, 5, 0.2);
            engine.step_batch(&x);
            assert_eq!(engine.profile(), KernelProfile::new(), "off: no clock read, no stamp");
            engine.set_profiling(true);
            engine.step_batch(&x);
            engine.step_batch_masked(&x, &LaneMask::from(vec![false, true, false]));
            let p = engine.profile();
            assert_eq!(p.calls(KernelId::Lstm), 2, "tiles={}", engine.tiles());
            assert_eq!(p.calls(KernelId::Projection), 2 * 2, "tiles={}", engine.tiles());
            assert!(p.category_nanos(KernelCategory::Controller) > 0);
            let reads = (3 + 1) * engine.tiles() * 2;
            assert_eq!(p.calls(KernelId::MemoryRead), reads as u64, "active lanes × shards × heads");
            engine.set_profiling(false);
            engine.step_batch(&x);
            assert_eq!(engine.profile(), p, "off again: the counts stand still");
        }
    }

    #[test]
    fn quantized_datapath_lanes_hold_representable_state() {
        let q = QFormat::q16_16();
        let mut batched = EngineBuilder::new(params()).lanes(2).quantized(q).seed(3).build();
        assert_eq!(batched.datapath(), Datapath::Quantized(q));
        let lanes = lane_inputs(2, 3, 5);
        for t in 0..3 {
            batched.step_batch(&step_block(&lanes, t));
        }
        for lane in 0..2 {
            for &x in batched.unit(lane, 0).memory().as_slice() {
                assert!(q.is_representable(x), "lane {lane} holds non-Q16.16 value {x}");
            }
        }
    }

    /// Pads lane `b`'s input with zeros once its stream has ended and
    /// returns the block plus the step's mask.
    fn masked_block(lanes: &[Vec<Vec<f32>>], t: usize, width: usize) -> (Matrix, LaneMask) {
        let lens: Vec<usize> = lanes.iter().map(Vec::len).collect();
        let zero = vec![0.0f32; width];
        let rows: Vec<&[f32]> = lanes
            .iter()
            .map(|lane| lane.get(t).map_or(zero.as_slice(), Vec::as_slice))
            .collect();
        (Matrix::from_rows(&rows), LaneMask::for_step(&lens, t))
    }

    /// Per-lane streams of *unequal* lengths.
    fn ragged_lane_inputs(lens: &[usize], width: usize) -> Vec<Vec<Vec<f32>>> {
        lens.iter()
            .enumerate()
            .map(|(b, &len)| {
                (0..len)
                    .map(|t| {
                        (0..width)
                            .map(|i| (((b * 131 + t * 17 + i * 7) as f32) * 0.13).sin())
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Grids of 1..=9 lanes under random ragged masks against one
    /// single-lane engine per lane. A single-lane engine is one lane
    /// group of one; the grid runs the panel-packed shared-weight product
    /// over every group shape of two or more active lanes — for the LSTM gates
    /// (`4H` columns), the interface projections (33 columns, so the
    /// `n % 4` remainder) and the output projection (6 columns).
    #[test]
    fn packed_grid_steps_match_single_lane_engines_at_every_width() {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for (tiles, quantized) in [(None, false), (Some(4), true)] {
            for b in 1..=9usize {
                let build = |lanes: usize| {
                    let mut e = EngineBuilder::new(params()).lanes(lanes).seed(19);
                    if let Some(nt) = tiles {
                        e = e.sharded(nt);
                    }
                    if quantized {
                        e = e.quantized(QFormat::q16_16());
                    }
                    e.build()
                };
                let mut grid = build(b);
                let mut solo: Vec<_> = (0..b).map(|_| build(1)).collect();
                let inputs = lane_inputs(b, 6, 5);
                for t in 0..6 {
                    let bits = next();
                    let mask = LaneMask::from_fn(b, |i| bits >> i & 1 == 1);
                    let y = grid.step_batch_masked(&step_block(&inputs, t), &mask);
                    for (i, engine) in solo.iter_mut().enumerate() {
                        if mask.is_active(i) {
                            let want = engine.step_batch(&Matrix::from_rows(&[&inputs[i][t]]));
                            assert_eq!(y.row(i), want.row(0), "{tiles:?} B={b} lane {i} t {t}");
                        } else {
                            assert!(y.row(i).iter().all(|&x| x == 0.0), "frozen lane {i} t {t}");
                        }
                        assert_eq!(grid.last_read_row(i), engine.last_read_row(0));
                    }
                }
            }
        }
    }

    #[test]
    fn full_mask_is_bit_identical_to_step_batch() {
        let lanes = lane_inputs(3, 2, 5);
        let mut a = mono(3, 7);
        let mut b = mono(3, 7);
        for t in 0..2 {
            let block = step_block(&lanes, t);
            assert_eq!(a.step_batch(&block), b.step_batch_masked(&block, &LaneMask::full(3)));
        }
    }

    #[test]
    fn fully_inactive_mask_is_a_frozen_no_op() {
        let lanes = lane_inputs(2, 2, 5);
        let mut batched = mono(2, 9);
        batched.step_batch(&step_block(&lanes, 0));
        let read_before = batched.last_read_rows();
        let y = batched
            .step_batch_masked(&step_block(&lanes, 1), &LaneMask::from(vec![false, false]));
        assert!(y.as_slice().iter().all(|&x| x == 0.0), "no lane advanced");
        assert_eq!(batched.last_read_rows(), read_before, "state untouched");
        // The next real step behaves as if the no-op never happened.
        let mut control = mono(2, 9);
        control.step_batch(&step_block(&lanes, 0));
        assert_eq!(
            batched.step_batch(&step_block(&lanes, 1)),
            control.step_batch(&step_block(&lanes, 1))
        );
    }

    #[test]
    #[should_panic(expected = "lane mask size mismatch")]
    fn masked_step_rejects_wrong_mask_length() {
        mono(2, 1)
            .step_batch_masked(&Matrix::zeros(2, 5), &LaneMask::full(3));
    }

    #[test]
    #[should_panic(expected = "need at least one batch lane")]
    fn rejects_zero_batch() {
        let p = params();
        let cfg = MemoryConfig::new(p.memory_size, p.word_size, p.read_heads);
        GridEngine::new(ModelInit::new(p, cfg, 1, 0), None, 0, Datapath::F32, false);
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn rejects_wrong_batch_rows() {
        mono(2, 1).step_batch(&Matrix::zeros(3, 5));
    }

    /// Engines warmed differently per lane, then lane states swapped
    /// across engines: each lane must continue bit-identically to the
    /// engine its state came from. Covers monolithic and sharded
    /// topologies on both datapaths — the splice contract the serving
    /// grid's session swaps rest on.
    #[test]
    fn export_import_swap_is_bit_exact() {
        let build = |sharded: bool, quantized: bool| {
            let mut b = EngineBuilder::new(params()).lanes(2).seed(33);
            if sharded {
                b = b.sharded(4);
            }
            if quantized {
                b = b.quantized(QFormat::new(16, 16));
            }
            b.build()
        };
        for (sharded, quantized) in
            [(false, false), (false, true), (true, false), (true, true)]
        {
            let lanes = lane_inputs(2, 4, 5);
            let mut a = build(sharded, quantized);
            let mut c = build(sharded, quantized);
            for t in 0..2 {
                a.step_batch(&step_block(&lanes, t));
                // Engine `c` sees the lanes in swapped order.
                let swapped =
                    Matrix::from_rows(&[lanes[1][t].as_slice(), lanes[0][t].as_slice()]);
                c.step_batch(&swapped);
            }
            // Swap lane states across engines: a's lane 0 state came from
            // the same stream as c's lane 1 state.
            let a0 = a.export_lane(0);
            let c1 = c.export_lane(1);
            a.import_lane(0, &c1);
            c.import_lane(1, &a0);
            // Round trip is bit-exact: both engines now hold the same
            // per-stream state, so they continue identically (mod lane
            // order).
            for t in 2..4 {
                let ya = a.step_batch(&step_block(&lanes, t));
                let swapped =
                    Matrix::from_rows(&[lanes[1][t].as_slice(), lanes[0][t].as_slice()]);
                let yc = c.step_batch(&swapped);
                assert_eq!(ya.row(0), yc.row(1), "sharded={sharded} quant={quantized} t={t}");
                assert_eq!(ya.row(1), yc.row(0), "sharded={sharded} quant={quantized} t={t}");
                assert_eq!(a.last_read_row(0), c.last_read_row(1));
            }
        }
    }

    /// `reset_lane` returns exactly one lane to blank state: the reset
    /// lane matches a freshly built engine bit-for-bit while its
    /// neighbour's in-flight state is untouched.
    #[test]
    fn reset_lane_is_a_fresh_lane_and_leaves_neighbours_alone() {
        for tiles in [None, Some(4)] {
            let lanes = lane_inputs(2, 4, 5);
            let mut b = EngineBuilder::new(params()).lanes(2).seed(5);
            if let Some(nt) = tiles {
                b = b.sharded(nt);
            }
            let mut warmed = b.clone().build();
            let mut fresh = b.build();
            for t in 0..2 {
                warmed.step_batch(&step_block(&lanes, t));
            }
            let lane1 = warmed.export_lane(1);
            warmed.reset_lane(0);
            // Lane 1 untouched by the reset.
            assert_eq!(warmed.last_read_row(1), &lane1.read[..]);
            // Lane 0 now behaves as a blank lane: replay lane 0's stream
            // from scratch on both engines.
            for t in 0..2 {
                let yw = warmed.step_batch(&step_block(&lanes, t));
                let yf = fresh.step_batch(&step_block(&lanes, t));
                assert_eq!(yw.row(0), yf.row(0), "tiles={tiles:?} t={t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "shard count mismatch")]
    fn import_rejects_wrong_shard_count() {
        let mono = EngineBuilder::new(params()).lanes(1).seed(1).build();
        let mut sharded = EngineBuilder::new(params()).sharded(4).lanes(1).seed(1).build();
        let state = mono.export_lane(0);
        sharded.import_lane(0, &state);
    }

    #[test]
    #[should_panic(expected = "datapath mismatch")]
    fn import_rejects_wrong_datapath() {
        let f32e = EngineBuilder::new(params()).lanes(1).seed(1).build();
        let mut quant =
            EngineBuilder::new(params()).lanes(1).quantized(QFormat::new(16, 16)).seed(1).build();
        let state = f32e.export_lane(0);
        quant.import_lane(0, &state);
    }

    #[test]
    fn lane_state_reports_geometry() {
        let e = EngineBuilder::new(params()).sharded(4).lanes(1).seed(1).build();
        let state = e.export_lane(0);
        assert_eq!(state.shards.len(), 4);
        assert!(state.state_elems() > 0);
    }

    /// Lane 1 inactive: its read row and output stay put while lane 0
    /// advances.
    #[test]
    fn masked_step_freezes_inactive_lanes() {
        let mut engine = mono(2, 4);
        let x = Matrix::filled(2, 5, 0.1);
        engine.step_batch(&x);
        let frozen = engine.last_read_rows();
        let y = engine.step_batch_masked(&x, &LaneMask::from(vec![true, false]));
        assert!(y.row(1).iter().all(|&v| v == 0.0), "inactive output row is zero");
        assert_eq!(engine.last_read_rows().row(1), frozen.row(1), "lane 1 frozen");
        assert_ne!(engine.last_read_rows().row(0), frozen.row(0), "lane 0 advanced");
    }

    /// The monolithic topology is the one-shard grid: it steps lane for
    /// lane like `Sharded { tiles: 1 }` with `α = 1`, under ragged masks,
    /// on both datapaths.
    #[test]
    fn monolithic_is_the_one_shard_grid_with_unit_merge() {
        let lens = [5usize, 2, 4, 3];
        let lanes = ragged_lane_inputs(&lens, 5);
        for quantized in [false, true] {
            let build = |b: EngineBuilder| {
                let b = b.lanes(lens.len()).seed(41);
                if quantized { b.quantized(QFormat::q16_16()) } else { b }.build()
            };
            let mut mono = build(EngineBuilder::new(params()));
            let mut one_shard = build(
                EngineBuilder::new(params())
                    .sharded(1)
                    .merge(ReadMerge::from_weights(vec![1.0])),
            );
            assert_eq!((mono.tiles(), one_shard.tiles()), (1, 1));
            for t in 0..5 {
                let (block, mask) = masked_block(&lanes, t, 5);
                let ym = mono.step_batch_masked(&block, &mask);
                let ys = one_shard.step_batch_masked(&block, &mask);
                assert_eq!(ym, ys, "quantized={quantized} t={t}");
                assert_eq!(mono.last_read_rows(), one_shard.last_read_rows(), "t={t}");
            }
        }
    }

    /// A monolithic lane's read row is its shard read bit for bit — a
    /// copy, where the `α = 1` merge of a one-shard DNC-D loses `-0.0`.
    #[test]
    fn monolithic_read_row_is_the_shard_read_bit_for_bit() {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut engine = mono(2, 13);
        let lanes = lane_inputs(2, 3, 5);
        for t in 0..3 {
            engine.step_batch(&step_block(&lanes, t));
            for lane in 0..2 {
                let state = engine.export_lane(lane);
                assert_eq!(bits(engine.last_read_row(lane)), bits(&state.shards[0].read));
            }
        }
        engine.shards[0].read[0] = -0.0;
        gather_reads(engine.merge.as_ref(), &engine.shards[..1], engine.last_read.row_mut(0));
        assert_eq!(engine.last_read_row(0)[0].to_bits(), (-0.0f32).to_bits());
        assert_eq!(bits(engine.last_read_row(0)), bits(&engine.shards[0].read));
        // The merge this replaces: 0.0 + 1.0 · -0.0 is +0.0.
        let unit = ReadMerge::from_weights(vec![1.0]);
        gather_reads(Some(&unit), &engine.shards[..1], engine.last_read.row_mut(0));
        assert_eq!(engine.last_read_row(0)[0].to_bits(), 0.0f32.to_bits());
    }

    /// The step fans out by work, not by task count: a grid past the
    /// threshold does, the same grid with few active lanes does not, and
    /// the outputs are the same bits whichever way — and at any pool size.
    #[test]
    fn fan_out_follows_the_work_estimate_and_never_changes_a_bit() {
        // 192·(192 + 8) = 38 400 elements per lane: sixteen active lanes
        // are just past two workers' worth, eight are not.
        let p = DncParams::new(192, 8, 1).with_hidden(8).with_io(3, 3);
        let (batch, steps) = (16, 3);
        assert!(batch * 192 * 200 >= 2 * FAN_OUT_MIN_ELEMS_PER_WORKER);
        let lanes = lane_inputs(batch, steps, 3);
        let masks = [LaneMask::full(batch), LaneMask::from_fn(batch, |b| b % 2 == 0)];
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let mut grid = EngineBuilder::new(p).lanes(batch).seed(3).build();
            pool.install(|| {
                assert_eq!(grid.fans_out(&masks[0]), threads == 2, "full grid, {threads} threads");
                assert!(!grid.fans_out(&masks[1]), "half the lanes is under the threshold");
                (0..steps)
                    .map(|t| grid.step_batch_masked(&step_block(&lanes, t), &masks[t % 2]))
                    .collect::<Vec<_>>()
            })
        };
        let inline = run(1);
        assert_eq!(run(2), inline, "two workers, fanned out on the full-mask steps");
        assert_eq!(run(3), inline, "three workers, under the threshold again");
    }

    /// One active lane steps its shards inline, never through the worker
    /// fan-out; the lane must step exactly as a single-lane engine does
    /// whatever the pool size, on a one-shard and on a sharded grid.
    #[test]
    fn a_lone_active_lane_steps_like_a_single_lane_engine_at_any_pool_size() {
        let (batch, steps) = (4, 8);
        let lanes = lane_inputs(batch, steps, 5);
        for tiles in [None, Some(4)] {
            let build = |b| match tiles {
                None => mono(b, 31),
                Some(nt) => sharded(nt, b, 31),
            };
            for threads in [1, 3] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let mut grid = build(batch);
                let mut solos: Vec<_> = (0..batch).map(|_| build(1)).collect();
                pool.install(|| {
                    for t in 0..steps {
                        let lane = (t * 3) % batch;
                        let mask = LaneMask::from_fn(batch, |b| b == lane);
                        let frozen = grid.last_read_rows();
                        let y = grid.step_batch_masked(&step_block(&lanes, t), &mask);
                        let want = solos[lane].step(&lanes[lane][t]);
                        assert_eq!(y.row(lane), &want[..], "tiles={tiles:?} threads={threads} t={t}");
                        for b in (0..batch).filter(|&b| b != lane) {
                            assert_eq!(grid.last_read_row(b), frozen.row(b), "lane {b} must stay frozen");
                        }
                    }
                });
            }
        }
    }

    /// The kernel profile belongs to the lane, not the session: a splice
    /// with no step in between leaves `engine.profile()` where it was,
    /// whether a warmed lane's state lands on a blank lane or the blank
    /// one's on the warmed.
    #[test]
    fn a_splice_leaves_the_engines_profile_where_it_was() {
        let lanes = lane_inputs(2, 10, 5);
        for (from, to) in [(0, 1), (1, 0)] {
            let mut engine = mono(2, 5);
            engine.set_profiling(true);
            for t in 0..10 {
                engine.step_batch_masked(&step_block(&lanes, t), &LaneMask::from(vec![true, false]));
            }
            let before = engine.profile();
            assert_eq!(before.calls(KernelId::MemoryRead), 20, "10 steps of lane 0 × 2 heads");
            let state = engine.export_lane(from);
            engine.import_lane(to, &state);
            assert_eq!(engine.profile(), before, "lane {from} spliced over lane {to}");
        }
    }

    /// Two lanes of `spec` warmed for `steps` steps on input streams
    /// `first_stream` and the one after it.
    fn warmed(spec: crate::EngineSpec, first_stream: usize, steps: usize) -> BoxedEngine {
        let mut engine = EngineBuilder::new(params()).with_spec(spec).lanes(2).seed(33).build();
        let lanes = lane_inputs(first_stream + 2, steps, 5);
        for t in 0..steps {
            engine.step_batch(&step_block(&lanes[first_stream..], t));
        }
        engine
    }

    /// The exchange against the copying pair it stands in for, across the
    /// codec's topology × datapath grid: the lane steps on, and the
    /// session handed back encodes, bit for bit as after `export_lane` +
    /// `import_lane` — for the session swapped in, the one swapped out,
    /// and again once the parked one returns to another lane. Two swaps
    /// with the same state are the identity.
    #[test]
    fn swap_lane_is_export_plus_import_bit_for_bit() {
        for spec in crate::persist::tests::spec_grid() {
            let incoming = warmed(spec, 2, 3).export_lane(1);
            let mut swapped = warmed(spec, 0, 4);
            let mut copied = swapped.clone();
            let lanes = lane_inputs(2, 8, 5);

            let mut parked = incoming.clone();
            swapped.swap_lane(0, &mut parked);
            let exported = copied.export_lane(0);
            copied.import_lane(0, &incoming);
            assert_eq!(parked.encode(), exported.encode(), "parked session, {spec:?}");
            for t in 4..6 {
                let block = step_block(&lanes, t);
                assert_eq!(swapped.step_batch(&block), copied.step_batch(&block), "{spec:?} t={t}");
            }

            // The parked session comes back on the other lane; what it
            // displaces is again what an export returns.
            let displaced = copied.export_lane(1);
            copied.import_lane(1, &exported);
            swapped.swap_lane(1, &mut parked);
            assert_eq!(parked.encode(), displaced.encode(), "displaced session, {spec:?}");
            for t in 6..8 {
                let block = step_block(&lanes, t);
                assert_eq!(swapped.step_batch(&block), copied.step_batch(&block), "{spec:?} t={t}");
                assert_eq!(swapped.last_read_rows(), copied.last_read_rows());
            }

            let (lane_before, state_before) = (swapped.export_lane(0).encode(), parked.encode());
            swapped.swap_lane(0, &mut parked);
            swapped.swap_lane(0, &mut parked);
            assert_eq!(swapped.export_lane(0).encode(), lane_before, "two swaps, {spec:?}");
            assert_eq!(parked.encode(), state_before, "two swaps, {spec:?}");
        }
    }

    /// A swap is refused wherever an import is, in the same words, and a
    /// refused swap has moved nothing.
    #[test]
    fn swap_lane_panics_where_import_lane_does_with_its_messages() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let build = |p: DncParams, tiles: usize, quantized: bool| {
            let mut b = EngineBuilder::new(p).lanes(1).seed(1);
            if tiles > 1 {
                b = b.sharded(tiles);
            }
            if quantized {
                b = b.quantized(QFormat::new(16, 16));
            }
            b.build()
        };
        let message = |r: std::thread::Result<()>| {
            let payload = r.expect_err("a mismatched splice must panic");
            payload.downcast_ref::<String>().cloned().expect("assert_eq! panics with a String")
        };
        let p = params();
        for (source, target, want) in [
            (build(p, 1, false), build(p, 4, false), "lane state shard count mismatch"),
            (build(p, 1, false), build(p, 1, true), "lane state datapath mismatch"),
            (
                build(DncParams::new(32, 4, 2).with_hidden(24).with_io(5, 6), 1, false),
                build(p, 1, false),
                "memory config mismatch",
            ),
            (
                build(DncParams::new(16, 6, 2).with_hidden(24).with_io(5, 6), 1, false),
                build(p, 1, false),
                "read width mismatch",
            ),
            (
                build(DncParams::new(16, 4, 2).with_hidden(20).with_io(5, 6), 1, false),
                build(p, 1, false),
                "hidden width mismatch",
            ),
        ] {
            let mut target = target;
            let mut state = source.export_lane(0);
            let (lane_before, state_before) = (target.export_lane(0).encode(), state.encode());
            let imported = message(catch_unwind(AssertUnwindSafe(|| target.import_lane(0, &state))));
            let swapped = message(catch_unwind(AssertUnwindSafe(|| target.swap_lane(0, &mut state))));
            assert!(imported.contains(want), "{imported}");
            assert_eq!(swapped, imported);
            assert_eq!(target.export_lane(0).encode(), lane_before, "{want}: lane untouched");
            assert_eq!(state.encode(), state_before, "{want}: state untouched");
        }
    }

    /// The kernel profile and its gate belong to the lane: a swap with no
    /// step in between leaves `engine.profile()` where it was, and the
    /// totals only grow from there — the scheduler's profile sampler
    /// subtracts consecutive readings.
    #[test]
    fn a_swap_leaves_the_profile_monotone_and_the_gate_alone() {
        let lanes = lane_inputs(2, 12, 5);
        let mut engine = mono(2, 5);
        engine.set_profiling(true);
        for t in 0..10 {
            engine.step_batch_masked(&step_block(&lanes, t), &LaneMask::from(vec![true, false]));
        }
        let before = engine.profile();
        // A warmed session onto the blank lane, a blank one onto the warmed.
        let mut state = engine.export_lane(0);
        engine.swap_lane(1, &mut state);
        engine.swap_lane(0, &mut state);
        assert_eq!(engine.profile(), before, "a swap moves no profile");
        engine.step_batch(&step_block(&lanes, 10));
        let after = engine.profile();
        for k in KernelId::ALL {
            assert!(after.nanos(k) >= before.nanos(k) && after.calls(k) >= before.calls(k), "{k:?}");
        }
        assert_eq!(after.calls(KernelId::MemoryRead), before.calls(KernelId::MemoryRead) + 2 * 2);

        // A state from a profiling engine does not switch a quiet lane on.
        let mut quiet = mono(2, 5);
        quiet.swap_lane(0, &mut state);
        quiet.step_batch(&step_block(&lanes, 11));
        assert_eq!(quiet.profile(), KernelProfile::new());
    }

    /// A rehydrated session keeps the *engine's* profiling gate: whatever
    /// the snapshot's source had on, a splice must not switch a
    /// profiling-off server's lane to reading the clock.
    #[test]
    fn import_keeps_the_engines_profiling_gate() {
        for tiles in [None, Some(4)] {
            let build = || match tiles {
                None => mono(2, 5),
                Some(nt) => sharded(nt, 2, 5),
            };
            let lanes = lane_inputs(2, 4, 5);
            let mut source = build();
            source.step_batch(&step_block(&lanes, 0));
            let decoded = LaneState::decode(&source.export_lane(1).encode()).unwrap();

            let mut engine = build();
            engine.import_lane(0, &decoded);
            for t in 1..4 {
                engine.step_batch(&step_block(&lanes, t));
            }
            assert_eq!(engine.profile(), KernelProfile::new(), "tiles={tiles:?}");

            // And the other way: a profiling engine keeps sampling the
            // lanes it imports from a profiling-off one.
            engine.set_profiling(true);
            engine.import_lane(1, &source.export_lane(0));
            engine.step_batch(&step_block(&lanes, 1));
            let reads = engine.profile().calls(crate::profile::KernelId::MemoryRead);
            assert_eq!(reads, (2 * engine.tiles() * 2) as u64, "2 lanes × shards × 2 heads");
        }
    }
}
