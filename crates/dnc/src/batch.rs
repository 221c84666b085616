//! Batched, data-parallel execution of the DNC and DNC-D models.
//!
//! The single-example [`Dnc::step`](crate::Dnc::step) path processes one
//! token through one set of state memories. Serving-style workloads run
//! *many independent sequences* through the **same weights**, which admits
//! two structural speedups:
//!
//! 1. **Shared-weight batching** — the controller, interface and output
//!    projections become one `B × K` by `N × K`ᵀ product per step
//!    ([`hima_tensor::Matrix::matmul_nt`]) instead of `B` mat-vecs, and
//!    the LSTM gates are activated as whole `B × H` row-blocks
//!    ([`crate::lstm::Lstm::step_batch`]).
//! 2. **Lane × shard data-parallelism** — each lane's memory units are
//!    independent of every other lane's, and within a DNC-D lane the
//!    `N_t` shards are independent of each other too. [`BatchDncD`]
//!    flattens the whole `B × N_t` grid into **one** rayon task list per
//!    step (the 2-D decomposition mirroring the hardware tiling), so a
//!    single sharded lane still fans out across threads.
//!
//! Both engines support the fixed-point [`Datapath`] axis: with
//! [`Datapath::Quantized`] every lane's memory unit is a
//! [`QuantizedMemoryUnit`] that rounds its inputs and stored state to the
//! Q-format each step (the controller and projections stay f32 — HiMA is
//! the *memory-access* engine; the controller lives outside it).
//!
//! Both engines also run **ragged** batches: `step_batch_masked` takes a
//! [`LaneMask`] naming the lanes still inside their episodes, advances
//! only those (masked rows of every kernel are skipped, not
//! zeroed-and-recomputed) and freezes the rest — so unequal-length
//! episodes share one lane grid, each lane dropping out as its episode
//! ends. The uniform `step_batch` is the fully-active special case of
//! the same kernel.
//!
//! Both [`BatchDnc`] and [`BatchDncD`] are **bit-compatible** with running
//! their `B` lanes through the sequential models: the batched kernels use
//! the same per-row accumulation order as `matvec`, and the per-lane
//! memory step is the very same [`MemoryUnit`] code. The equivalence is
//! asserted across every topology × lanes × datapath combination by the
//! trait-level conformance suite in `crates/dnc/tests/conformance.rs`
//! (uniform) and the workspace-level `tests/ragged_conformance.rs`
//! (masked).
//!
//! Construct these engines through
//! [`EngineBuilder`](crate::EngineBuilder); the type-specific
//! constructors are deprecated shims.

use crate::builder::Datapath;
use crate::distributed::{DncD, ReadMerge};
use crate::dnc::Dnc;
use crate::interface::InterfaceVector;
use crate::lstm::{Lstm, LstmState};
use crate::memory::{MemoryConfig, MemoryUnit};
use crate::profile::KernelProfile;
use crate::quantized::QuantizedMemoryUnit;
use crate::workspace::StepWorkspace;
use crate::DncParams;
use hima_tensor::{Backend, LaneMask, Matrix};
use rayon::prelude::*;

/// A lane's memory unit on either datapath.
#[derive(Debug, Clone)]
pub(crate) enum LaneMemory {
    /// Exact f32 unit.
    F32(MemoryUnit),
    /// Fixed-point unit (state rounded to the Q-format every step).
    Quantized(QuantizedMemoryUnit),
}

impl LaneMemory {
    pub(crate) fn new(cfg: MemoryConfig, datapath: Datapath) -> Self {
        match datapath {
            Datapath::F32 => LaneMemory::F32(MemoryUnit::new(cfg)),
            Datapath::Quantized(q) => {
                LaneMemory::Quantized(QuantizedMemoryUnit::with_format(cfg, q))
            }
        }
    }

    /// Steps the unit, writing the flattened read vectors into `out` —
    /// allocation-free on either datapath.
    fn step_into(&mut self, iv: &InterfaceVector, out: &mut [f32]) {
        match self {
            LaneMemory::F32(u) => u.step_into(iv, out),
            LaneMemory::Quantized(q) => q.step_into(iv, out),
        }
    }

    fn reset(&mut self) {
        match self {
            LaneMemory::F32(u) => u.reset(),
            LaneMemory::Quantized(q) => q.reset(),
        }
    }

    /// The wrapped unit, for state inspection and profiling.
    pub(crate) fn unit(&self) -> &MemoryUnit {
        match self {
            LaneMemory::F32(u) => u,
            LaneMemory::Quantized(q) => q.inner(),
        }
    }

    /// Switches wall-clock kernel sampling on or off in the wrapped unit.
    fn set_profiling(&mut self, on: bool) {
        match self {
            LaneMemory::F32(u) => u.set_profiling(on),
            LaneMemory::Quantized(q) => q.set_profiling(on),
        }
    }

    /// Whether this unit runs the given datapath (same variant, and for
    /// fixed point the same Q-format) — the splice-compatibility check of
    /// [`LaneState`].
    fn matches_datapath(&self, datapath: Datapath) -> bool {
        match (self, datapath) {
            (LaneMemory::F32(_), Datapath::F32) => true,
            (LaneMemory::Quantized(q), Datapath::Quantized(fmt)) => q.format() == fmt,
            _ => false,
        }
    }
}

/// A detached snapshot of one batch lane's complete session state: the
/// lane's recurrent LSTM state, its per-shard memory units (external
/// memory, usage, linkage, read/write weightings — one shard for
/// monolithic engines, `N_t` for DNC-D) and the carried read-vector and
/// hidden rows the next step's controller consumes.
///
/// This is the **state-splice** currency of the serving layer:
/// [`BatchDnc::export_lane`] detaches a session's state from a lane grid,
/// [`BatchDnc::import_lane`] re-attaches it to any lane of any engine
/// built from the *same* spec and hyper-parameters (weights are a
/// function of the seed alone, so lane slots are interchangeable), and
/// the round trip is bit-exact — a session swapped out of a grid and
/// back in continues precisely where it left off. The snapshot also
/// carries the unit's accumulated kernel profile, so per-session
/// profiling travels with the session.
///
/// The fields are intentionally private: a `LaneState` is an opaque
/// value that only the engine that understands its geometry can consume.
/// For durability the opaque value still crosses a process boundary —
/// [`LaneState::encode`]/[`LaneState::decode`] (in [`crate::persist`])
/// are the versioned binary codec the session store persists, and the
/// round trip is bit-exact on every topology × datapath combination.
#[derive(Debug, Clone)]
pub struct LaneState {
    pub(crate) lstm: LstmState,
    /// One `(memory unit, flattened shard read vector)` per shard.
    pub(crate) shards: Vec<(LaneMemory, Vec<f32>)>,
    /// The lane's merged `R·W` read-vector row (`last_read`).
    pub(crate) read: Vec<f32>,
    /// The lane's held `H` hidden row (`last_hidden`).
    pub(crate) hidden: Vec<f32>,
}

impl LaneState {
    /// Number of memory shards the snapshot carries (1 for monolithic
    /// engines, `N_t` for sharded ones).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The lane's merged `R·W` read-vector row — what `ReadRows` reports
    /// for the session while its state is detached from any grid.
    pub fn read_row(&self) -> &[f32] {
        &self.read
    }

    /// Approximate heap footprint of the snapshot in `f32` elements —
    /// what a session cache pays to hold a detached session.
    pub fn state_elems(&self) -> usize {
        let mem: usize = self
            .shards
            .iter()
            .map(|(m, read)| {
                let u = m.unit();
                let n = u.memory().rows();
                u.memory().rows() * u.memory().cols()
                    + n * (2 + n) // usage + precedence + linkage
                    + n * (1 + u.read_weightings().len()) // write + read weightings
                    + read.len()
            })
            .sum();
        mem + 2 * self.lstm.hidden.len() + self.read.len() + self.hidden.len()
    }
}

/// One batch lane of a centralized DNC: the lane-private memory unit, the
/// lane's last flattened read vector, and the lane's reusable
/// interface-parse scratch (lanes step in parallel, so per-lane scratch
/// cannot live in the shared [`StepWorkspace`]).
#[derive(Debug, Clone)]
struct Lane {
    memory: LaneMemory,
    read: Vec<f32>,
    iv: InterfaceVector,
}

/// `B` independent DNC lanes sharing one set of weights.
///
/// Lanes start from blank (reset) state; the weights are identical to a
/// [`Dnc`] constructed with the same parameters and seed, so lane `b` of
/// [`BatchDnc::step_batch`] reproduces `Dnc::step` on lane `b`'s input
/// stream exactly.
///
/// # Example
///
/// ```
/// use hima_dnc::{Dnc, DncParams, EngineBuilder, MemoryEngine};
/// use hima_tensor::Matrix;
///
/// let params = DncParams::new(16, 4, 1).with_io(3, 3);
/// let mut batch = EngineBuilder::new(params).lanes(2).seed(7).build();
/// let x = Matrix::from_rows(&[&[1.0, 0.0, 0.0][..], &[0.0, 1.0, 0.0][..]]);
/// let y = batch.step_batch(&x);
/// assert_eq!(y.shape(), (2, 3));
///
/// // Lane 0 matches a sequential DNC fed lane 0's input.
/// let mut dnc = Dnc::new(params, 7);
/// let y0 = dnc.step(&[1.0, 0.0, 0.0]);
/// hima_tensor::assert_close(y.row(0), &y0, 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct BatchDnc {
    params: DncParams,
    controller: Lstm,
    interface_proj: Matrix,
    output_proj: Matrix,
    datapath: Datapath,
    /// Kernel tier of the shared-weight projections and the controller
    /// product — the same tier the lane memory units read from their
    /// [`MemoryConfig`], so one engine runs one tier end to end.
    backend: Backend,
    lstm_states: Vec<LstmState>,
    lanes: Vec<Lane>,
    last_read: Matrix,
    last_hidden: Matrix,
    ws: StepWorkspace,
}

impl BatchDnc {
    /// Creates `batch` blank lanes with weights identical to
    /// `Dnc::new(params, seed)` and an exact memory unit per lane.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    #[deprecated(note = "compose with `EngineBuilder::new(params).lanes(batch).seed(seed).build()`")]
    pub fn new(params: DncParams, batch: usize, seed: u64) -> Self {
        let mem_cfg = MemoryConfig::new(params.memory_size, params.word_size, params.read_heads);
        Dnc::with_memory_config(params, mem_cfg, seed).batched_with(batch, Datapath::F32)
    }

    /// Creates `batch` blank lanes with weights identical to
    /// `Dnc::with_memory_config(params, mem_cfg, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or the memory geometry disagrees with
    /// `params`.
    #[deprecated(
        note = "compose with `EngineBuilder` (`.skim()`, `.sorter()`, `.approx_softmax()` cover the MemoryConfig features)"
    )]
    pub fn with_memory_config(
        params: DncParams,
        mem_cfg: MemoryConfig,
        batch: usize,
        seed: u64,
    ) -> Self {
        // Reuse the sequential constructor so weight init stays defined in
        // exactly one place.
        Dnc::with_memory_config(params, mem_cfg, seed).batched_with(batch, Datapath::F32)
    }

    /// Internal constructor used by [`Dnc::batched`] and the builder:
    /// shares weights with an existing model and starts every lane blank.
    pub(crate) fn from_parts(
        params: DncParams,
        controller: Lstm,
        interface_proj: Matrix,
        output_proj: Matrix,
        mem_cfg: MemoryConfig,
        batch: usize,
        datapath: Datapath,
    ) -> Self {
        assert!(batch > 0, "need at least one batch lane");
        let read_width = params.read_heads * params.word_size;
        let lanes = (0..batch)
            .map(|_| Lane {
                memory: LaneMemory::new(mem_cfg, datapath),
                read: vec![0.0; read_width],
                iv: InterfaceVector::zeroed(params.word_size, params.read_heads),
            })
            .collect();
        let mut ws = StepWorkspace::new();
        ws.ensure(&params, batch, 1);
        Self {
            params,
            controller,
            interface_proj,
            output_proj,
            datapath,
            backend: mem_cfg.backend,
            lstm_states: vec![LstmState::zeros(params.hidden_size); batch],
            lanes,
            last_read: Matrix::zeros(batch, read_width),
            last_hidden: Matrix::zeros(batch, params.hidden_size),
            ws,
        }
    }

    /// Number of batch lanes `B`.
    pub fn batch(&self) -> usize {
        self.lanes.len()
    }

    /// The model hyper-parameters.
    pub fn params(&self) -> &DncParams {
        &self.params
    }

    /// The numeric datapath of the lane memory units.
    pub fn datapath(&self) -> Datapath {
        self.datapath
    }

    /// The kernel execution tier this engine runs on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Lane `b`'s memory unit (for state inspection).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()`.
    pub fn memory(&self, lane: usize) -> &MemoryUnit {
        self.lanes[lane].memory.unit()
    }

    /// The `B × R·W` block of read vectors fed to the controller at the
    /// next step (row `b` is lane `b`'s flattened read vectors).
    pub fn last_read(&self) -> &Matrix {
        &self.last_read
    }

    /// The `B × (H + R·W)` feature block `[h_t ; v_r]` per lane — the
    /// batched analogue of [`Dnc::last_features`].
    pub fn last_features(&self) -> Matrix {
        Matrix::hcat(&self.last_hidden, &self.last_read)
    }

    /// Kernel profile aggregated across every lane's memory unit.
    pub fn profile(&self) -> KernelProfile {
        let mut p = KernelProfile::new();
        for lane in &self.lanes {
            p.merge(lane.memory.unit().profile());
        }
        p
    }

    /// Switches wall-clock kernel sampling on or off for every lane.
    pub fn set_profiling(&mut self, on: bool) {
        for lane in &mut self.lanes {
            lane.memory.set_profiling(on);
        }
    }

    /// Resets every lane's memory and recurrent state (weights unchanged)
    /// **in place** — no buffer is reallocated, so reuse across episodes
    /// (harnesses, pipeline engine workers) stays allocation-free.
    pub fn reset(&mut self) {
        for lane in &mut self.lanes {
            lane.memory.reset();
            lane.read.fill(0.0);
        }
        for state in &mut self.lstm_states {
            state.clear();
        }
        self.last_read.as_mut_slice().fill(0.0);
        self.last_hidden.as_mut_slice().fill(0.0);
    }

    /// Runs one time step for every lane: `inputs` is `B × input_size`
    /// (row `b` is lane `b`'s token) and the result is `B × output_size`.
    ///
    /// The controller and both projections run as single shared-weight
    /// batched products; the per-lane memory units step in parallel across
    /// rayon worker threads.
    ///
    /// Allocating convenience over [`BatchDnc::step_batch_into`] (the one
    /// allocation is the returned output block).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `B × input_size`.
    pub fn step_batch(&mut self, inputs: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(self.lanes.len(), self.params.output_size);
        self.step_batch_into(inputs, &mut y);
        y
    }

    /// Output-buffer form of [`BatchDnc::step_batch`]: the uniform
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
        assert_eq!(inputs.rows(), self.lanes.len(), "batch size mismatch");
        assert_eq!(inputs.cols(), self.params.input_size, "input width mismatch");
        self.ws.ensure(&self.params, self.lanes.len(), 1);
        // Borrow dance: the cached full mask cannot be borrowed while
        // `self` is, so take it (a move — no allocation) and put it back.
        let mask = std::mem::take(&mut self.ws.full_mask);
        self.step_batch_masked_into(inputs, &mask, y);
        self.ws.full_mask = mask;
    }

    /// Masked form of [`BatchDnc::step_batch`] for ragged batches: only
    /// the lanes `mask` marks active advance — their controller rows,
    /// interface/output projection rows and memory units run exactly as
    /// in the uniform path — while an inactive lane's entire state
    /// (LSTM, memory, last read vector) stays **frozen** and its kernel
    /// rows are skipped, not zeroed-and-recomputed. The input rows of
    /// inactive lanes are padding and never read.
    ///
    /// Active lanes are bit-identical to stepping each lane's episode
    /// alone through a single-lane engine (the ragged conformance
    /// property); a fully-active mask *is* [`BatchDnc::step_batch`].
    /// Inactive rows of the returned output block are zero.
    ///
    /// Allocating convenience over [`BatchDnc::step_batch_masked_into`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `B × input_size` or
    /// `mask.lanes() != B`.
    pub fn step_batch_masked(&mut self, inputs: &Matrix, mask: &LaneMask) -> Matrix {
        let mut y = Matrix::zeros(self.lanes.len(), self.params.output_size);
        self.step_batch_masked_into(inputs, mask, &mut y);
        y
    }

    /// Output-buffer form of [`BatchDnc::step_batch_masked`]: writes the
    /// `B × output_size` block into `y` (resized in place if its shape
    /// differs). Every transient comes from the engine's
    /// [`StepWorkspace`] or the per-lane scratch, so the steady state
    /// performs **zero heap allocations** — and the result is bit-for-bit
    /// what the allocating form returns.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `B × input_size` or
    /// `mask.lanes() != B`.
    pub fn step_batch_masked_into(&mut self, inputs: &Matrix, mask: &LaneMask, y: &mut Matrix) {
        let b = self.lanes.len();
        assert_eq!(inputs.rows(), b, "batch size mismatch");
        assert_eq!(inputs.cols(), self.params.input_size, "input width mismatch");
        assert_eq!(mask.lanes(), b, "lane mask size mismatch");
        self.ws.ensure(&self.params, b, 1);
        if y.shape() != (b, self.params.output_size) {
            *y = Matrix::zeros(b, self.params.output_size);
        }
        let ws = &mut self.ws;

        // Controller on [x_t ; v_r^{t-1}], all active lanes at once
        // (frozen lanes surface their held hidden state).
        Matrix::hcat_into(inputs, &self.last_read, &mut ws.ctrl_in);
        self.controller.step_batch_masked_into_with(
            &mut self.lstm_states,
            &ws.ctrl_in,
            mask,
            &mut ws.lstm,
            &mut ws.hidden,
            self.backend,
        );

        // Interface projection + parse (input skip connection), batched
        // over the active rows.
        Matrix::hcat_into(&ws.hidden, inputs, &mut ws.iface_in);
        self.backend.matmul_nt_masked_into(
            &ws.iface_in,
            &self.interface_proj,
            mask,
            &mut ws.raw_shards[0],
        );

        // Memory unit step: active lanes are independent — fan out
        // across threads; frozen lanes hold their memory state. Each
        // lane parses into and steps through its own scratch, so the
        // loop is allocation-free on every worker.
        let (w, r) = (self.params.word_size, self.params.read_heads);
        let raw = &ws.raw_shards[0];
        self.lanes.par_iter_mut().enumerate().for_each(|(b, lane)| {
            if !mask.is_active(b) {
                return;
            }
            lane.iv.parse_into(raw.row(b), w, r);
            lane.memory.step_into(&lane.iv, &mut lane.read);
        });
        for (b, lane) in self.lanes.iter().enumerate() {
            if mask.is_active(b) {
                self.last_read.row_mut(b).copy_from_slice(&lane.read);
            }
        }

        // Output projection over [h ; v_r], batched over the active rows
        // (inactive output rows stay zero).
        Matrix::hcat_into(&ws.hidden, &self.last_read, &mut ws.out_in);
        self.backend.matmul_nt_masked_into(&ws.out_in, &self.output_proj, mask, y);
        self.last_hidden.as_mut_slice().copy_from_slice(ws.hidden.as_slice());
    }

    /// Runs a whole synchronized sequence: `steps[t]` is the `B ×
    /// input_size` block for time `t`; the result holds one `B ×
    /// output_size` block per step.
    pub fn run_sequence_batch(&mut self, steps: &[Matrix]) -> Vec<Matrix> {
        steps.iter().map(|x| self.step_batch(x)).collect()
    }

    /// Detaches a snapshot of lane `lane`'s complete session state (LSTM
    /// state, memory unit, carried read vector and hidden row). The lane
    /// itself is untouched; re-attaching the snapshot with
    /// [`BatchDnc::import_lane`] — to any lane of any engine built from
    /// the same spec/params/seed — is a bit-exact round trip.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()`.
    pub fn export_lane(&self, lane: usize) -> LaneState {
        let l = &self.lanes[lane];
        LaneState {
            lstm: self.lstm_states[lane].clone(),
            shards: vec![(l.memory.clone(), l.read.clone())],
            read: self.last_read.row(lane).to_vec(),
            hidden: self.last_hidden.row(lane).to_vec(),
        }
    }

    /// Replaces lane `lane`'s session state with a snapshot previously
    /// detached by [`BatchDnc::export_lane`] (possibly from a different
    /// lane or a different engine of the same configuration). After the
    /// splice the lane steps bit-identically to the engine the snapshot
    /// was exported from.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()` or the snapshot's geometry/datapath
    /// disagrees with this engine (shard count, memory config, Q-format,
    /// read/hidden widths).
    pub fn import_lane(&mut self, lane: usize, state: &LaneState) {
        assert_eq!(state.shards.len(), 1, "lane state shard count mismatch");
        let l = &mut self.lanes[lane];
        let (mem, shard_read) = &state.shards[0];
        assert!(mem.matches_datapath(self.datapath), "lane state datapath mismatch");
        assert_eq!(mem.unit().config(), l.memory.unit().config(), "memory config mismatch");
        assert_eq!(shard_read.len(), l.read.len(), "read width mismatch");
        assert_eq!(state.read.len(), self.last_read.cols(), "read width mismatch");
        assert_eq!(state.hidden.len(), self.params.hidden_size, "hidden width mismatch");
        assert_eq!(state.lstm.hidden.len(), self.params.hidden_size, "hidden width mismatch");
        self.lstm_states[lane] = state.lstm.clone();
        l.memory = mem.clone();
        l.read.copy_from_slice(shard_read);
        self.last_read.row_mut(lane).copy_from_slice(&state.read);
        self.last_hidden.row_mut(lane).copy_from_slice(&state.hidden);
    }

    /// Resets a *single* lane to blank state (memory, recurrent state and
    /// carried rows), leaving every other lane untouched — how a serving
    /// grid recycles a freed lane slot for a fresh session. A reset lane
    /// steps bit-identically to a lane of a freshly built engine.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()`.
    pub fn reset_lane(&mut self, lane: usize) {
        let l = &mut self.lanes[lane];
        l.memory.reset();
        l.read.fill(0.0);
        self.lstm_states[lane].clear();
        self.last_read.row_mut(lane).fill(0.0);
        self.last_hidden.row_mut(lane).fill(0.0);
    }
}

/// One shard of one DNC-D batch lane: the shard's memory unit, its last
/// flattened read vector and its reusable interface-parse scratch — the
/// unit of work of the 2-D (lane × shard) parallel decomposition.
#[derive(Debug, Clone)]
struct ShardLane {
    memory: LaneMemory,
    read: Vec<f32>,
    iv: InterfaceVector,
}

/// `B` independent DNC-D lanes sharing one set of weights (controller,
/// per-shard interface projections, output projection and the read-merge
/// `α`).
///
/// Lanes start from blank state; lane `b` of
/// [`BatchDncD::step_batch`] reproduces [`DncD::step`] on lane `b`'s
/// input stream exactly. Each step fans the flattened `B × N_t` grid of
/// shard memory units out across rayon worker threads — the ROADMAP's
/// 2-D lane × shard decomposition — so even a single sharded lane
/// (`lanes(1)`) parallelizes across its shards.
#[derive(Debug, Clone)]
pub struct BatchDncD {
    params: DncParams,
    controller: Lstm,
    interface_projs: Vec<Matrix>,
    output_proj: Matrix,
    merge: ReadMerge,
    datapath: Datapath,
    /// Kernel tier of the shared-weight products (see [`BatchDnc`]);
    /// derived from the shard memory configs.
    backend: Backend,
    lstm_states: Vec<LstmState>,
    batch: usize,
    /// The flat `B × N_t` shard grid, lane-major: lane `b`'s shards are
    /// `shards[b·N_t .. (b+1)·N_t]`. Flat storage *is* the 2-D parallel
    /// decomposition — one `par_iter_mut` over this slice is the per-step
    /// task list, with no per-step collection of task references.
    shards: Vec<ShardLane>,
    last_read: Matrix,
    last_hidden: Matrix,
    ws: StepWorkspace,
}

impl BatchDncD {
    /// Creates `batch` blank lanes with weights identical to
    /// `DncD::new(params, tiles, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`, `tiles == 0` or `tiles >
    /// params.memory_size`.
    #[deprecated(
        note = "compose with `EngineBuilder::new(params).sharded(tiles).lanes(batch).seed(seed).build()`"
    )]
    pub fn new(params: DncParams, tiles: usize, batch: usize, seed: u64) -> Self {
        DncD::new(params, tiles, seed).batched_with(batch, Datapath::F32)
    }

    /// Internal constructor used by [`DncD::batched`] and the builder.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        params: DncParams,
        controller: Lstm,
        interface_projs: Vec<Matrix>,
        output_proj: Matrix,
        merge: ReadMerge,
        shard_cfgs: Vec<MemoryConfig>,
        batch: usize,
        datapath: Datapath,
    ) -> Self {
        assert!(batch > 0, "need at least one batch lane");
        let read_width = params.read_heads * params.word_size;
        let tiles = interface_projs.len();
        let backend = shard_cfgs.first().map_or(Backend::Scalar, |cfg| cfg.backend);
        let shards = (0..batch)
            .flat_map(|_| {
                shard_cfgs.iter().map(|cfg| ShardLane {
                    memory: LaneMemory::new(*cfg, datapath),
                    read: vec![0.0; read_width],
                    iv: InterfaceVector::zeroed(params.word_size, params.read_heads),
                })
            })
            .collect();
        let mut ws = StepWorkspace::new();
        ws.ensure(&params, batch, tiles);
        Self {
            params,
            controller,
            interface_projs,
            output_proj,
            merge,
            datapath,
            backend,
            lstm_states: vec![LstmState::zeros(params.hidden_size); batch],
            batch,
            shards,
            last_read: Matrix::zeros(batch, read_width),
            last_hidden: Matrix::zeros(batch, params.hidden_size),
            ws,
        }
    }

    /// Number of batch lanes `B`.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Number of distributed shards `N_t` per lane.
    pub fn tiles(&self) -> usize {
        self.interface_projs.len()
    }

    /// The model hyper-parameters.
    pub fn params(&self) -> &DncParams {
        &self.params
    }

    /// The numeric datapath of the shard memory units.
    pub fn datapath(&self) -> Datapath {
        self.datapath
    }

    /// The kernel execution tier this engine runs on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The `B × R·W` block of merged read vectors (row `b` is lane `b`).
    pub fn last_read(&self) -> &Matrix {
        &self.last_read
    }

    /// The `B × (H + R·W)` feature block `[h_t ; v_r]` per lane — the
    /// batched analogue of [`DncD::last_features`].
    pub fn last_features(&self) -> Matrix {
        Matrix::hcat(&self.last_hidden, &self.last_read)
    }

    /// Kernel profile aggregated across every lane's shard memory units.
    pub fn profile(&self) -> KernelProfile {
        let mut p = KernelProfile::new();
        for shard in &self.shards {
            p.merge(shard.memory.unit().profile());
        }
        p
    }

    /// Switches wall-clock kernel sampling on or off for every shard of
    /// every lane.
    pub fn set_profiling(&mut self, on: bool) {
        for shard in &mut self.shards {
            shard.memory.set_profiling(on);
        }
    }

    /// Replaces the read-merge weights used by every lane.
    ///
    /// # Panics
    ///
    /// Panics if the shard count disagrees.
    pub fn set_merge(&mut self, merge: ReadMerge) {
        assert_eq!(merge.shards(), self.tiles(), "merge shard count mismatch");
        self.merge = merge;
    }

    /// Resets every lane's shard memories and recurrent state **in
    /// place** (no reallocation; weights and merge unchanged).
    pub fn reset(&mut self) {
        for shard in &mut self.shards {
            shard.memory.reset();
            shard.read.fill(0.0);
        }
        for state in &mut self.lstm_states {
            state.clear();
        }
        self.last_read.as_mut_slice().fill(0.0);
        self.last_hidden.as_mut_slice().fill(0.0);
    }

    /// Runs one time step for every lane (`inputs` is `B × input_size`),
    /// returning the `B × output_size` block of outputs.
    ///
    /// The controller and every shard's interface projection run batched
    /// over all lanes; the `B × N_t` grid of shard memory units is then
    /// flattened into **one** parallel task list (each task is one
    /// shard of one lane), and the per-lane shard reads are merged
    /// (Eq. 4) deterministically afterwards. The flat grid keeps every
    /// worker busy even when `B < threads` — the case the sequential
    /// shard loop used to leave on the table.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `B × input_size`.
    pub fn step_batch(&mut self, inputs: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(self.batch, self.params.output_size);
        self.step_batch_into(inputs, &mut y);
        y
    }

    /// Output-buffer form of [`BatchDncD::step_batch`]: the uniform
    /// (fully-active) step writing into `y` — **zero heap allocations**
    /// in the steady state, using the engine's cached full mask.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `B × input_size`.
    pub fn step_batch_into(&mut self, inputs: &Matrix, y: &mut Matrix) {
        // Validate caller input before taking the cached mask (see
        // [`BatchDnc::step_batch_into`]).
        assert_eq!(inputs.rows(), self.batch, "batch size mismatch");
        assert_eq!(inputs.cols(), self.params.input_size, "input width mismatch");
        self.ws.ensure(&self.params, self.batch, self.interface_projs.len());
        let mask = std::mem::take(&mut self.ws.full_mask);
        self.step_batch_masked_into(inputs, &mask, y);
        self.ws.full_mask = mask;
    }

    /// Masked form of [`BatchDncD::step_batch`] for ragged batches: the
    /// flat parallel shard grid advances only the shards of **active**
    /// lanes, so a lane whose episode has ended costs (almost) nothing —
    /// its shard memories, merged read vector and recurrent state stay
    /// frozen while live lanes advance.
    ///
    /// Active lanes are bit-identical to stepping each lane's episode
    /// alone (ragged conformance suite); a fully-active mask *is*
    /// [`BatchDncD::step_batch`]. Inactive rows of the returned output
    /// block are zero.
    ///
    /// Allocating convenience over
    /// [`BatchDncD::step_batch_masked_into`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `B × input_size` or
    /// `mask.lanes() != B`.
    pub fn step_batch_masked(&mut self, inputs: &Matrix, mask: &LaneMask) -> Matrix {
        let mut y = Matrix::zeros(self.batch, self.params.output_size);
        self.step_batch_masked_into(inputs, mask, &mut y);
        y
    }

    /// Output-buffer form of [`BatchDncD::step_batch_masked`]: writes the
    /// `B × output_size` block into `y` (resized in place if its shape
    /// differs). Transients come from the engine's [`StepWorkspace`]
    /// (one raw-interface block per shard) and the per-shard scratch, so
    /// the steady state performs **zero heap allocations**, bit-identical
    /// to the allocating form.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `B × input_size` or
    /// `mask.lanes() != B`.
    pub fn step_batch_masked_into(&mut self, inputs: &Matrix, mask: &LaneMask, y: &mut Matrix) {
        let (b, nt) = (self.batch, self.interface_projs.len());
        assert_eq!(inputs.rows(), b, "batch size mismatch");
        assert_eq!(inputs.cols(), self.params.input_size, "input width mismatch");
        assert_eq!(mask.lanes(), b, "lane mask size mismatch");
        self.ws.ensure(&self.params, b, nt);
        if y.shape() != (b, self.params.output_size) {
            *y = Matrix::zeros(b, self.params.output_size);
        }
        let ws = &mut self.ws;

        Matrix::hcat_into(inputs, &self.last_read, &mut ws.ctrl_in);
        self.controller.step_batch_masked_into_with(
            &mut self.lstm_states,
            &ws.ctrl_in,
            mask,
            &mut ws.lstm,
            &mut ws.hidden,
            self.backend,
        );

        // One batched projection per shard (each shard has its own
        // interface weights but shares them across lanes), over the
        // active rows only.
        Matrix::hcat_into(&ws.hidden, inputs, &mut ws.iface_in);
        for (proj, raw) in self.interface_projs.iter().zip(ws.raw_shards.iter_mut()) {
            self.backend.matmul_nt_masked_into(&ws.iface_in, proj, mask, raw);
        }

        // 2-D decomposition: the flat lane-major shard grid is the task
        // list; each task recovers its (b, s) coordinates from its index
        // and inactive lanes' shards return immediately.
        let (w, r) = (self.params.word_size, self.params.read_heads);
        let raws = &ws.raw_shards;
        self.shards.par_iter_mut().enumerate().for_each(|(i, shard)| {
            let (bi, s) = (i / nt, i % nt);
            if !mask.is_active(bi) {
                return;
            }
            shard.iv.parse_into(raws[s].row(bi), w, r);
            shard.memory.step_into(&shard.iv, &mut shard.read);
        });

        // Merge shard reads per active lane (Eq. 4), straight into the
        // lane's last-read row — sequential and deterministic regardless
        // of task scheduling above.
        for bi in 0..b {
            if !mask.is_active(bi) {
                continue;
            }
            let lane_shards = &self.shards[bi * nt..(bi + 1) * nt];
            self.merge.merge_iter_into(
                lane_shards.iter().map(|s| s.read.as_slice()),
                self.last_read.row_mut(bi),
            );
        }

        Matrix::hcat_into(&ws.hidden, &self.last_read, &mut ws.out_in);
        self.backend.matmul_nt_masked_into(&ws.out_in, &self.output_proj, mask, y);
        self.last_hidden.as_mut_slice().copy_from_slice(ws.hidden.as_slice());
    }

    /// Runs a whole synchronized sequence (`steps[t]` is `B ×
    /// input_size`), returning one `B × output_size` block per step.
    pub fn run_sequence_batch(&mut self, steps: &[Matrix]) -> Vec<Matrix> {
        steps.iter().map(|x| self.step_batch(x)).collect()
    }

    /// Detaches a snapshot of lane `lane`'s complete session state: LSTM
    /// state, all `N_t` shard memory units with their per-shard read
    /// vectors, and the carried merged-read/hidden rows. See
    /// [`BatchDnc::export_lane`]; the round trip through
    /// [`BatchDncD::import_lane`] is bit-exact.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()`.
    pub fn export_lane(&self, lane: usize) -> LaneState {
        let nt = self.tiles();
        assert!(lane < self.batch, "lane index out of range");
        let shards = self.shards[lane * nt..(lane + 1) * nt]
            .iter()
            .map(|s| (s.memory.clone(), s.read.clone()))
            .collect();
        LaneState {
            lstm: self.lstm_states[lane].clone(),
            shards,
            read: self.last_read.row(lane).to_vec(),
            hidden: self.last_hidden.row(lane).to_vec(),
        }
    }

    /// Replaces lane `lane`'s session state with a snapshot detached by
    /// [`BatchDncD::export_lane`] from any engine of the same
    /// configuration. See [`BatchDnc::import_lane`].
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()` or the snapshot's geometry/datapath
    /// disagrees with this engine (shard count, per-shard memory config,
    /// Q-format, read/hidden widths).
    pub fn import_lane(&mut self, lane: usize, state: &LaneState) {
        let nt = self.tiles();
        assert!(lane < self.batch, "lane index out of range");
        assert_eq!(state.shards.len(), nt, "lane state shard count mismatch");
        assert_eq!(state.read.len(), self.last_read.cols(), "read width mismatch");
        assert_eq!(state.hidden.len(), self.params.hidden_size, "hidden width mismatch");
        assert_eq!(state.lstm.hidden.len(), self.params.hidden_size, "hidden width mismatch");
        let lane_shards = &mut self.shards[lane * nt..(lane + 1) * nt];
        for (dst, (mem, shard_read)) in lane_shards.iter_mut().zip(&state.shards) {
            assert!(mem.matches_datapath(self.datapath), "lane state datapath mismatch");
            assert_eq!(mem.unit().config(), dst.memory.unit().config(), "memory config mismatch");
            assert_eq!(shard_read.len(), dst.read.len(), "read width mismatch");
        }
        self.lstm_states[lane] = state.lstm.clone();
        for (dst, (mem, shard_read)) in lane_shards.iter_mut().zip(&state.shards) {
            dst.memory = mem.clone();
            dst.read.copy_from_slice(shard_read);
        }
        self.last_read.row_mut(lane).copy_from_slice(&state.read);
        self.last_hidden.row_mut(lane).copy_from_slice(&state.hidden);
    }

    /// Resets a *single* lane (all its shards, recurrent state and
    /// carried rows) to blank state, leaving every other lane untouched.
    /// See [`BatchDnc::reset_lane`].
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()`.
    pub fn reset_lane(&mut self, lane: usize) {
        let nt = self.tiles();
        assert!(lane < self.batch, "lane index out of range");
        for shard in &mut self.shards[lane * nt..(lane + 1) * nt] {
            shard.memory.reset();
            shard.read.fill(0.0);
        }
        self.lstm_states[lane].clear();
        self.last_read.row_mut(lane).fill(0.0);
        self.last_hidden.row_mut(lane).fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;

    fn params() -> DncParams {
        DncParams::new(16, 4, 2).with_hidden(24).with_io(5, 6)
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
    fn batch_dnc_matches_sequential_lanes_exactly() {
        let (batch, steps) = (4, 6);
        let lanes = lane_inputs(batch, steps, 5);
        let mut batched = Dnc::new(params(), 11).batched_with(batch, Datapath::F32);
        let mut sequential: Vec<_> = (0..batch).map(|_| Dnc::new(params(), 11)).collect();
        for t in 0..steps {
            let y = batched.step_batch(&step_block(&lanes, t));
            for (b, dnc) in sequential.iter_mut().enumerate() {
                let want = dnc.step(&lanes[b][t]);
                assert_eq!(y.row(b), &want[..], "lane {b} t {t}");
            }
        }
    }

    #[test]
    fn batch_dncd_matches_sequential_lanes_exactly() {
        let (batch, steps) = (3, 5);
        let lanes = lane_inputs(batch, steps, 5);
        let mut batched = DncD::new(params(), 4, 23).batched_with(batch, Datapath::F32);
        let mut sequential: Vec<_> = (0..batch).map(|_| DncD::new(params(), 4, 23)).collect();
        for t in 0..steps {
            let y = batched.step_batch(&step_block(&lanes, t));
            for (b, dncd) in sequential.iter_mut().enumerate() {
                let want = dncd.step(&lanes[b][t]);
                assert_eq!(y.row(b), &want[..], "lane {b} t {t}");
            }
        }
    }

    #[test]
    fn reset_restores_blank_lanes() {
        let lanes = lane_inputs(2, 3, 5);
        let mut batched = Dnc::new(params(), 9).batched_with(2, Datapath::F32);
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
        // `EngineBuilder::build` and the internal `batched_with` plumbing
        // are the same construction path; pin that they stay bit-equal so
        // the builder remains the canonical constructor.
        let x = Matrix::filled(2, 5, 0.25);
        let mut direct = Dnc::new(params(), 31).batched_with(2, Datapath::F32);
        let mut built = EngineBuilder::new(params()).lanes(2).seed(31).build();
        assert_eq!(direct.step_batch(&x), built.step_batch(&x));

        let mut direct_d = DncD::new(params(), 4, 31).batched_with(2, Datapath::F32);
        let mut built_d = EngineBuilder::new(params()).sharded(4).lanes(2).seed(31).build();
        assert_eq!(direct_d.step_batch(&x), built_d.step_batch(&x));
    }

    #[test]
    fn batched_from_existing_model_shares_weights() {
        let dnc = Dnc::new(params(), 31);
        let mut batched = dnc.batched_with(2, Datapath::F32);
        let mut fresh = Dnc::new(params(), 31);
        let x = vec![0.25f32; 5];
        let block = Matrix::from_rows(&[x.as_slice(), x.as_slice()]);
        let y = batched.step_batch(&block);
        let want = fresh.step(&x);
        assert_eq!(y.row(0), &want[..]);
        assert_eq!(y.row(1), &want[..]);
    }

    #[test]
    fn profile_aggregates_all_lanes() {
        let mut batched = Dnc::new(params(), 1).batched_with(3, Datapath::F32);
        let x = Matrix::zeros(3, 5);
        batched.step_batch(&x);
        let p = batched.profile();
        assert_eq!(p.calls(crate::profile::KernelId::MemoryRead), 3 * 2, "3 lanes × 2 heads");
    }

    #[test]
    fn dncd_profile_aggregates_lanes_and_shards() {
        let mut batched = DncD::new(params(), 4, 1).batched_with(2, Datapath::F32);
        batched.step_batch(&Matrix::zeros(2, 5));
        let p = batched.profile();
        assert_eq!(
            p.calls(crate::profile::KernelId::MemoryRead),
            2 * 4 * 2,
            "2 lanes × 4 shards × 2 heads"
        );
    }

    #[test]
    fn quantized_datapath_lanes_hold_representable_state() {
        let q = hima_tensor::QFormat::q16_16();
        let mut batched = Dnc::new(params(), 3).batched_with(2, Datapath::Quantized(q));
        assert_eq!(batched.datapath(), Datapath::Quantized(q));
        let lanes = lane_inputs(2, 3, 5);
        for t in 0..3 {
            batched.step_batch(&step_block(&lanes, t));
        }
        for lane in 0..2 {
            for &x in batched.memory(lane).memory().as_slice() {
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

    #[test]
    fn masked_batch_dnc_matches_sequential_ragged_lanes_exactly() {
        let lens = [5usize, 2, 4];
        let lanes = ragged_lane_inputs(&lens, 5);
        let mut batched = Dnc::new(params(), 11).batched_with(3, Datapath::F32);
        let mut sequential: Vec<_> = (0..3).map(|_| Dnc::new(params(), 11)).collect();
        for t in 0..5 {
            let (block, mask) = masked_block(&lanes, t, 5);
            let y = batched.step_batch_masked(&block, &mask);
            for (b, dnc) in sequential.iter_mut().enumerate() {
                if t < lens[b] {
                    let want = dnc.step(&lanes[b][t]);
                    assert_eq!(y.row(b), &want[..], "lane {b} t {t}");
                    assert_eq!(batched.last_read().row(b), dnc.last_read(), "lane {b} t {t}");
                } else {
                    assert!(y.row(b).iter().all(|&x| x == 0.0), "ended lane {b} outputs zero");
                    assert_eq!(
                        batched.last_read().row(b),
                        dnc.last_read(),
                        "ended lane {b} read vector frozen at t {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_batch_dncd_matches_sequential_ragged_lanes_exactly() {
        let lens = [1usize, 4, 3];
        let lanes = ragged_lane_inputs(&lens, 5);
        let mut batched = DncD::new(params(), 4, 23).batched_with(3, Datapath::F32);
        let mut sequential: Vec<_> = (0..3).map(|_| DncD::new(params(), 4, 23)).collect();
        for t in 0..4 {
            let (block, mask) = masked_block(&lanes, t, 5);
            let y = batched.step_batch_masked(&block, &mask);
            for (b, dncd) in sequential.iter_mut().enumerate() {
                if t < lens[b] {
                    let want = dncd.step(&lanes[b][t]);
                    assert_eq!(y.row(b), &want[..], "lane {b} t {t}");
                } else {
                    assert_eq!(
                        batched.last_read().row(b),
                        dncd.last_read(),
                        "ended lane {b} read vector frozen at t {t}"
                    );
                }
            }
        }
    }

    /// Grids of 1..=9 lanes under random ragged masks against one
    /// single-lane engine per lane. A single-lane engine always runs the
    /// row kernel; the grid runs the lane-packed shared-weight product
    /// whenever two or more lanes are active — for the LSTM gates
    /// (`4H` columns), the interface projections (33 columns, so the
    /// `n % 4` remainder) and the output projection (6 columns).
    #[test]
    fn lane_packed_grid_steps_match_single_lane_engines_at_every_width() {
        use crate::builder::EngineBuilder;
        use hima_tensor::QFormat;

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
        let mut a = Dnc::new(params(), 7).batched_with(3, Datapath::F32);
        let mut b = Dnc::new(params(), 7).batched_with(3, Datapath::F32);
        for t in 0..2 {
            let block = step_block(&lanes, t);
            assert_eq!(a.step_batch(&block), b.step_batch_masked(&block, &LaneMask::full(3)));
        }
    }

    #[test]
    fn fully_inactive_mask_is_a_frozen_no_op() {
        let lanes = lane_inputs(2, 2, 5);
        let mut batched = Dnc::new(params(), 9).batched_with(2, Datapath::F32);
        batched.step_batch(&step_block(&lanes, 0));
        let read_before = batched.last_read().clone();
        let y = batched
            .step_batch_masked(&step_block(&lanes, 1), &LaneMask::from(vec![false, false]));
        assert!(y.as_slice().iter().all(|&x| x == 0.0), "no lane advanced");
        assert_eq!(batched.last_read(), &read_before, "state untouched");
        // The next real step behaves as if the no-op never happened.
        let mut control = Dnc::new(params(), 9).batched_with(2, Datapath::F32);
        control.step_batch(&step_block(&lanes, 0));
        assert_eq!(
            batched.step_batch(&step_block(&lanes, 1)),
            control.step_batch(&step_block(&lanes, 1))
        );
    }

    #[test]
    #[should_panic(expected = "lane mask size mismatch")]
    fn masked_step_rejects_wrong_mask_length() {
        Dnc::new(params(), 1)
            .batched_with(2, Datapath::F32)
            .step_batch_masked(&Matrix::zeros(2, 5), &LaneMask::full(3));
    }

    #[test]
    #[should_panic(expected = "need at least one batch lane")]
    fn rejects_zero_batch() {
        Dnc::new(params(), 1).batched_with(0, Datapath::F32);
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn rejects_wrong_batch_rows() {
        Dnc::new(params(), 1).batched_with(2, Datapath::F32).step_batch(&Matrix::zeros(3, 5));
    }

    /// Engines warmed differently per lane, then lane states swapped
    /// across engines: each lane must continue bit-identically to the
    /// engine its state came from. Covers monolithic and sharded
    /// topologies on both datapaths — the splice contract the serving
    /// grid's session swaps rest on.
    #[test]
    fn export_import_swap_is_bit_exact() {
        use crate::builder::EngineBuilder;
        use hima_tensor::QFormat;

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
        use crate::builder::EngineBuilder;
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
        use crate::builder::EngineBuilder;
        let mono = EngineBuilder::new(params()).lanes(1).seed(1).build();
        let mut sharded = EngineBuilder::new(params()).sharded(4).lanes(1).seed(1).build();
        let state = mono.export_lane(0);
        sharded.import_lane(0, &state);
    }

    #[test]
    #[should_panic(expected = "datapath mismatch")]
    fn import_rejects_wrong_datapath() {
        use crate::builder::EngineBuilder;
        use hima_tensor::QFormat;
        let f32e = EngineBuilder::new(params()).lanes(1).seed(1).build();
        let mut quant =
            EngineBuilder::new(params()).lanes(1).quantized(QFormat::new(16, 16)).seed(1).build();
        let state = f32e.export_lane(0);
        quant.import_lane(0, &state);
    }

    #[test]
    fn lane_state_reports_geometry() {
        use crate::builder::EngineBuilder;
        let e = EngineBuilder::new(params()).sharded(4).lanes(1).seed(1).build();
        let state = e.export_lane(0);
        assert_eq!(state.shard_count(), 4);
        assert!(state.state_elems() > 0);
    }
}
