//! The DNC memory unit: the complete soft-write / soft-read dataflow of
//! Fig. 2, with per-kernel instrumentation.
//!
//! One [`MemoryUnit::step`] consumes an [`InterfaceVector`] and runs, in
//! order: content write weighting → retention → usage (+ sort) → allocation
//! → write merge → memory write → linkage + precedence → forward/backward →
//! content read weighting → read merge → memory read. Every stage is timed
//! into a [`KernelProfile`] so runtime-breakdown figures can be regenerated.
//!
//! There is one unit, and its [`Datapath`] is fixed at construction:
//! [`MemoryUnit::new`] computes in exact `f32`, [`MemoryUnit::with_format`]
//! runs the same `f32` step between two rounding passes (the interface on
//! arrival; state memories and read vectors at write-back — see
//! [`quantized`](crate::quantized)). A session carries the unit's state
//! memories from step to step and nothing else: scratch, PLA tables, norm
//! cache and kernel profile belong to whichever unit it is stepped on.
//!
//! Each phase walks its matrix **once for all heads**, as HiMA's tiles
//! walk their local `M` and `L` blocks. The previous read weightings are
//! one `R × N` matrix `W_r` and the read keys one `R × W` matrix `K`, and
//! a step makes five passes over `M` and `L` where a head-at-a-time step
//! makes `4R + 3`:
//!
//! | pass | kernel | pinned to |
//! |------|--------|-----------|
//! | write key · `Mᵀ`, + pre-write row norms if the cache is stale | [`row_dots_into`] | [`Matrix::matmul_nt_into`], [`Matrix::row_norms_into`] |
//! | `F = W_r · Lᵀ` (forward) | [`row_dots_into`] | [`TemporalLinkage::forward_into`] |
//! | `B = W_r · L` (backward) | [`matvec_t_heads_into`] | [`TemporalLinkage::backward_into`] |
//! | `K · Mᵀ`, + post-write row norms if the write touched `M` | [`row_dots_into`] | [`content_weighting_into`](crate::content::content_weighting_into) |
//! | `V = W_r' · M` (memory read) | [`matvec_t_heads_into`] | [`Matrix::matvec_t_into`] |
//!
//! Only the read merge between the last two has no shared operand and runs
//! per head — all `R` merges first (straight into the head's row of `W_r`:
//! every head's inputs were taken from the previous `W_r` above, so
//! nothing still reads it), then the one read. On the `f32` datapath the
//! norms are cached across steps and recomputed only after a write that
//! touched `M`; the quantized datapath rounds `M` every step, so there
//! both norm passes ride along with the dots they would otherwise follow.
//!
//! Fusing changes which *head* (or which row of `M`) a vector lane
//! carries, never the order of operations inside one output's sum:
//! every element of every pass is still one rounded
//! multiply then one rounded add per ascending `k`, the transposed passes
//! keep [`Matrix::matvec_t_into`]'s skip of exact-zero weights as a mask
//! (see [`hima_tensor::fused`] for both arguments, and
//! [`content`](crate::content) for the one `-0.0` caveat of the dots), so
//! the step is bit-identical to the one-head-at-a-time definition —
//! pinned `to_bits` by `crates/dnc/tests/head_batching.rs`.
//!
//! [`row_dots_into`]: hima_tensor::fused::row_dots_into
//! [`matvec_t_heads_into`]: hima_tensor::fused::matvec_t_heads_into

use crate::allocation::{merge_write_weighting_into, FreeList, SkimRate};
use crate::builder::Datapath;
use crate::content::{content_weightings_heads_into, NormCache};
use crate::interface::InterfaceVector;
use crate::linkage::{merge_read_weighting_into, TemporalLinkage};
use crate::profile::{KernelId, KernelProfile, Laps};
use crate::quantized::quantize_interface_into;
use hima_tensor::softmax::PlaSoftmax;
use hima_tensor::{Backend, Matrix, QFormat};

/// Memory-unit configuration: geometry plus the approximation features of
/// §5.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Memory slots `N`.
    pub memory_size: usize,
    /// Word width `W`.
    pub word_size: usize,
    /// Read heads `R`.
    pub read_heads: usize,
    /// Usage skimming rate `K`.
    pub skim: SkimRate,
    /// Whether to use the PLA+LUT softmax approximation.
    pub approx_softmax: bool,
    /// An inert label, stored and read back (the `HLSS` config byte
    /// carries it): it selects nothing — see [`Backend`]. Defaults to
    /// [`Backend::Scalar`].
    pub backend: Backend,
}

impl MemoryConfig {
    /// Exact DNC memory unit: no skimming, exact softmax.
    pub fn new(memory_size: usize, word_size: usize, read_heads: usize) -> Self {
        Self {
            memory_size,
            word_size,
            read_heads,
            skim: SkimRate::NONE,
            approx_softmax: false,
            backend: Backend::Scalar,
        }
    }

    /// Enables usage skimming at rate `k`.
    pub fn with_skim(mut self, k: SkimRate) -> Self {
        self.skim = k;
        self
    }

    /// Enables the PLA+LUT softmax.
    pub fn with_approx_softmax(mut self, on: bool) -> Self {
        self.approx_softmax = on;
        self
    }

    /// Stores the [`Backend`] label (which selects nothing).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
}

/// Read outputs of one memory-unit step.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadResult {
    /// One read vector per head (`R × W`).
    pub read_vectors: Vec<Vec<f32>>,
}

impl ReadResult {
    /// Flattens the per-head read vectors into one `R·W` vector, the layout
    /// the controller consumes.
    pub fn flattened(&self) -> Vec<f32> {
        self.read_vectors.iter().flatten().copied().collect()
    }
}

/// Per-step scratch buffers of one memory unit — every transient `N`-sized
/// vector and `R × N` head block [`MemoryUnit::step_into`] needs, pre-sized
/// at construction and reused across steps so the steady state performs
/// **zero** heap allocations. Each unit owns its scratch (lanes and shards
/// step in parallel on worker threads, so the scratch cannot be shared).
#[derive(Debug, Clone)]
struct StepScratch {
    /// The interface as the fixed-point datapath sees it: every field
    /// rounded on arrival (untouched on the `f32` datapath).
    rounded_iv: InterfaceVector,
    /// Content write weighting (CW output for the write head).
    content_w: Vec<f32>,
    /// Retention vector `ψ`.
    psi: Vec<f32>,
    /// Free list `φ`: packed sort keys, sorted as far as the allocation
    /// product reaches.
    free_list: FreeList,
    /// Allocation weighting `w_a`.
    w_a: Vec<f32>,
    /// Merged write weighting `w_w`.
    w_w: Vec<f32>,
    /// Forward weightings `f` of all read heads, `R × N`.
    fwd: Matrix,
    /// Backward weightings `b` of all read heads, `R × N`.
    bwd: Matrix,
    /// Content read weightings `c` of all read heads, `R × N`.
    content_r: Matrix,
}

impl StepScratch {
    fn sized(config: &MemoryConfig) -> Self {
        let (n, heads) = (config.memory_size, config.read_heads);
        Self {
            rounded_iv: InterfaceVector::zeroed(config.word_size, heads),
            content_w: vec![0.0; n],
            psi: vec![0.0; n],
            free_list: FreeList::with_capacity(n),
            w_a: vec![0.0; n],
            w_w: vec![0.0; n],
            fwd: Matrix::zeros(heads, n),
            bwd: Matrix::zeros(heads, n),
            content_r: Matrix::zeros(heads, n),
        }
    }
}

/// The state memories of one memory unit — all a session carries from one
/// step to the next: what a [`LaneState`](crate::LaneState) snapshots, the
/// `HLSS` codec writes and a splice copies or exchanges. The buffer shapes are fixed by
/// the [`MemoryConfig`] they were sized from.
#[derive(Debug, Clone)]
pub(crate) struct UnitState {
    /// External memory `M`, `N × W`.
    pub(crate) memory: Matrix,
    pub(crate) usage: Vec<f32>,
    /// The `N × N` linkage and the precedence vector.
    pub(crate) linkage: TemporalLinkage,
    pub(crate) write_weighting: Vec<f32>,
    /// Last read weightings, one row per head (`R × N`): the left factor
    /// of the next step's forward product.
    pub(crate) read_weightings: Matrix,
}

impl UnitState {
    fn zeros(config: &MemoryConfig) -> Self {
        let (n, heads) = (config.memory_size, config.read_heads);
        Self {
            memory: Matrix::zeros(n, config.word_size),
            usage: vec![0.0; n],
            linkage: TemporalLinkage::new(n),
            write_weighting: vec![0.0; n],
            read_weightings: Matrix::zeros(heads, n),
        }
    }

    /// The six state buffers, in the order the `HLSS` codec writes them.
    pub(crate) fn buffers(&self) -> [&[f32]; 6] {
        [
            self.memory.as_slice(),
            &self.usage,
            self.linkage.matrix().as_slice(),
            self.linkage.precedence(),
            &self.write_weighting,
            self.read_weightings.as_slice(),
        ]
    }

    fn buffers_mut(&mut self) -> [&mut [f32]; 6] {
        let (linkage, precedence) = self.linkage.buffers_mut();
        [
            self.memory.as_mut_slice(),
            &mut self.usage,
            linkage,
            precedence,
            &mut self.write_weighting,
            self.read_weightings.as_mut_slice(),
        ]
    }

    /// The fixed-point datapath's rounding pass: every state memory, then
    /// the step's read vectors, each one contiguous buffer handed whole to
    /// [`QFormat::quantize_slice_inplace`]. HiMA's write-back *is*
    /// fixed-point, so each buffer's rounding time is charged — as time,
    /// not as a call — to the kernel that stores it (the read vectors are
    /// the memory read's store).
    fn quantize(&mut self, format: QFormat, reads: &mut [f32], laps: &mut Laps<'_>) {
        for (kernel, state) in [
            (KernelId::MemoryWrite, self.memory.as_mut_slice()),
            (KernelId::Usage, &mut self.usage[..]),
            (KernelId::WriteMerge, &mut self.write_weighting[..]),
            (KernelId::ReadMerge, self.read_weightings.as_mut_slice()),
            (KernelId::MemoryRead, reads),
        ] {
            format.quantize_slice_inplace(state);
            laps.lap(kernel, 0);
        }
        self.linkage.quantize_state_laps(format, laps);
    }
}

/// The DNC external memory plus all state memories (usage, precedence,
/// linkage, read/write weightings) and the machinery that steps them, on
/// either [`Datapath`].
#[derive(Debug, Clone)]
pub struct MemoryUnit {
    config: MemoryConfig,
    /// Fixed at construction: exact `f32`, or rounding to a Q-format.
    datapath: Datapath,
    state: UnitState,
    pla: PlaSoftmax,
    profile: KernelProfile,
    /// Per-row L2 norms of the memory: memory changes only at the MW
    /// stage, so the `R + 1` content lookups share one norm pass each side
    /// of the write. Invalidated whenever memory mutates.
    norms: NormCache,
    scratch: StepScratch,
}

impl MemoryUnit {
    /// Creates a zero-initialized memory unit on the exact `f32` datapath.
    /// Panics if any geometry parameter is zero.
    pub fn new(config: MemoryConfig) -> Self {
        Self::with_datapath(config, Datapath::F32)
    }

    /// Creates a zero-initialized memory unit on the fixed-point datapath:
    /// every interface field is rounded to `format` on arrival and every
    /// state memory and read vector after each step (see
    /// [`quantized`](crate::quantized)). Panics if any geometry parameter
    /// is zero.
    pub fn with_format(config: MemoryConfig, format: QFormat) -> Self {
        Self::with_datapath(config, Datapath::Quantized(format))
    }

    pub(crate) fn with_datapath(config: MemoryConfig, datapath: Datapath) -> Self {
        assert!(config.memory_size > 0, "memory_size must be positive");
        assert!(config.word_size > 0, "word_size must be positive");
        assert!(config.read_heads > 0, "read_heads must be positive");
        Self {
            config,
            datapath,
            state: UnitState::zeros(&config),
            pla: PlaSoftmax::default(),
            profile: KernelProfile::new(),
            norms: NormCache::new(config.memory_size),
            scratch: StepScratch::sized(&config),
        }
    }

    /// The configuration this unit was built with.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// The numeric datapath this unit was built on.
    pub fn datapath(&self) -> Datapath {
        self.datapath
    }

    /// The external memory matrix `M`.
    pub fn memory(&self) -> &Matrix {
        &self.state.memory
    }

    /// Current usage vector.
    pub fn usage(&self) -> &[f32] {
        &self.state.usage
    }

    /// Current linkage state.
    pub fn linkage(&self) -> &TemporalLinkage {
        &self.state.linkage
    }

    /// Last write weighting.
    pub fn write_weighting(&self) -> &[f32] {
        &self.state.write_weighting
    }

    /// Last read weightings, one row per head (`R × N`).
    pub fn read_weightings(&self) -> &Matrix {
        &self.state.read_weightings
    }

    /// Accumulated kernel profile.
    pub fn profile(&self) -> &KernelProfile {
        &self.profile
    }

    /// Switches wall-clock kernel sampling on or off (see
    /// `KernelProfile::set_enabled`).
    pub fn set_profiling(&mut self, on: bool) {
        self.profile.set_enabled(on);
    }

    /// Rounds every stored state value — external memory, usage, linkage,
    /// precedence and the carried read/write weightings — to `format` in
    /// place: the rounding pass a unit built
    /// [`with_format`](MemoryUnit::with_format) runs after every step.
    pub fn quantize_state(&mut self, format: QFormat) {
        self.state.quantize(format, &mut [], &mut self.profile.laps());
        // Memory contents changed: the cached row norms no longer
        // describe them.
        self.norms.invalidate();
    }

    /// The state memories, for a [`LaneState`](crate::LaneState) snapshot.
    pub(crate) fn state(&self) -> &UnitState {
        &self.state
    }

    /// Overwrites the state memories with a snapshot's, in place — the
    /// splice. Scratch, PLA tables, kernel profile and its gate stay this
    /// unit's own; the row-norm cache is invalidated because the memory
    /// contents just changed. Panics if `state` was sized from a different
    /// geometry.
    pub(crate) fn load_state(&mut self, state: &UnitState) {
        for (dst, src) in self.state.buffers_mut().into_iter().zip(state.buffers()) {
            dst.copy_from_slice(src);
        }
        self.norms.invalidate();
    }

    /// Exchanges the state memories with a snapshot's by buffer header — the
    /// splice and the park in one, nothing copied or allocated: afterwards
    /// this unit holds `state`'s memories and `state` holds what the unit
    /// held. What stays the unit's own, and why the norm cache goes, is as
    /// for [`MemoryUnit::load_state`]. The caller has checked that `state`
    /// was sized from this unit's configuration.
    pub(crate) fn swap_state(&mut self, state: &mut UnitState) {
        std::mem::swap(&mut self.state, state);
        self.norms.invalidate();
    }

    /// Resets all memory and state (weights/config unchanged) in place —
    /// no buffer is reallocated, so engine reuse across episodes stays
    /// allocation-free.
    pub fn reset(&mut self) {
        self.state.buffers_mut().into_iter().for_each(|b| b.fill(0.0));
        self.norms.invalidate();
    }

    /// Runs one full soft-write + soft-read step.
    ///
    /// Allocating convenience over [`MemoryUnit::step_into`] — the two are
    /// bit-identical; hot loops should pass a reused output buffer to
    /// `step_into` instead.
    ///
    /// # Panics
    ///
    /// Panics if the interface vector's geometry disagrees with the
    /// configuration.
    pub fn step(&mut self, iv: &InterfaceVector) -> ReadResult {
        let (w, r) = (self.config.word_size, self.config.read_heads);
        let mut flat = vec![0.0; w * r];
        self.step_into(iv, &mut flat);
        ReadResult { read_vectors: flat.chunks(w).map(<[f32]>::to_vec).collect() }
    }

    /// Runs one full soft-write + soft-read step, writing the flattened
    /// read vectors (head-major, `R·W` wide — the layout
    /// [`ReadResult::flattened`] produces) into `out`.
    ///
    /// This is the allocation-free steady-state kernel on either datapath:
    /// every transient lives in the unit's pre-sized step scratch (the
    /// fixed-point datapath's rounded interface included), the usage
    /// free list reuses its key buffer, and content addressing reads the
    /// once-per-step row-norm cache — after the first step the call
    /// performs **zero** heap allocations.
    ///
    /// # Panics
    ///
    /// Panics if the interface vector's geometry disagrees with the
    /// configuration or `out.len() != R·W`.
    pub fn step_into(&mut self, iv: &InterfaceVector, out: &mut [f32]) {
        assert_eq!(iv.word_size(), self.config.word_size, "interface word size mismatch");
        assert_eq!(iv.read_heads(), self.config.read_heads, "interface read heads mismatch");
        assert_eq!(
            out.len(),
            self.config.read_heads * self.config.word_size,
            "read output length mismatch"
        );

        let (state, scratch) = (&mut self.state, &mut self.scratch);
        // Fixed point rounds the interface on arrival; the step below is
        // the same `f32` arithmetic on either datapath.
        let iv = match self.datapath {
            Datapath::F32 => iv,
            Datapath::Quantized(format) => {
                quantize_interface_into(iv, format, &mut scratch.rounded_iv);
                &scratch.rounded_iv
            }
        };

        // One lap per kernel: with profiling on the clock is read once
        // between consecutive stages, so the laps add up to the step.
        let mut laps = self.profile.laps();
        let approx = if self.config.approx_softmax { Some(&self.pla) } else { None };

        // --- Soft write -------------------------------------------------
        // CW.(1)+(2): content-based write weighting; the pre-write norms
        // come out of the same pass unless the cache still holds them
        // (the previous step's read phase, memory unchanged since).
        content_weightings_heads_into(
            &state.memory,
            &iv.write_key,
            &[iv.write_strength],
            approx,
            &mut self.norms,
            &mut scratch.content_w,
        );
        laps.lap(KernelId::Similarity, 1);

        // HW.(1): retention.
        crate::usage::retention_into(&iv.free_gates, &state.read_weightings, &mut scratch.psi);
        laps.lap(KernelId::Retention, 1);

        // HW.(2): usage update (each slot reads only itself: in place).
        crate::usage::update_usage_inplace(&mut state.usage, &state.write_weighting, &scratch.psi);
        laps.lap(KernelId::Usage, 1);

        // HW.(2b): usage sort (free-list construction, reused buffer) —
        // the order of the argsort every `hima-sort` model is pinned to:
        // each chunk of at most 128 keys sorted here, any
        // merge of several chunks inside the product (and its lap), only
        // as far as the product reads.
        scratch.free_list.sort(&state.usage, self.config.skim);
        laps.lap(KernelId::UsageSort, 1);

        // HW.(3): allocation from the free list, which carries the usage.
        scratch.free_list.allocation_into(&mut scratch.w_a);
        laps.lap(KernelId::Allocation, 1);

        // WM: write weight merge.
        merge_write_weighting_into(
            &scratch.w_a,
            &scratch.content_w,
            iv.write_gate,
            iv.allocation_gate,
            &mut scratch.w_w,
        );
        laps.lap(KernelId::WriteMerge, 1);

        // MW: memory write  M ← M ∘ (E − w_w eᵀ) + w_w vᵀ, rows with
        // w_w[i] == 0 untouched.
        let (erase, write) = (&iv.erase, &iv.write);
        if hima_tensor::history::erase_add_write(&mut state.memory, &scratch.w_w, erase, write) {
            self.norms.invalidate();
        }
        laps.lap(KernelId::MemoryWrite, 1);

        // HR.(1): linkage (uses the previous precedence).
        state.linkage.update_linkage_with(&scratch.w_w);
        laps.lap(KernelId::Linkage, 1);
        // HR.(2): precedence.
        state.linkage.update_precedence(&scratch.w_w);
        state.write_weighting.copy_from_slice(&scratch.w_w);
        laps.lap(KernelId::Precedence, 1);

        // --- Soft read ---------------------------------------------------
        // Fused head products first: everything that reads the previous
        // read weightings or the keys runs for all R heads at once.
        // HR.(3): forward/backward through the linkage.
        state.linkage.forward_heads_into(&state.read_weightings, &mut scratch.fwd);
        state.linkage.backward_heads_into(&state.read_weightings, &mut scratch.bwd);
        laps.lap(KernelId::ForwardBackward, 1);

        // CR.(1)+(2): content-based read weightings; the post-write norms
        // come out of the same pass if the write touched memory.
        content_weightings_heads_into(
            &state.memory,
            iv.read_keys.as_slice(),
            &iv.read_strengths,
            approx,
            &mut self.norms,
            scratch.content_r.as_mut_slice(),
        );
        laps.lap(KernelId::Normalize, 1);

        // Then per head — RM: read weight merge, into the head's carried
        // weighting.
        let heads = self.config.read_heads;
        for head in 0..heads {
            merge_read_weighting_into(
                scratch.bwd.row(head),
                scratch.content_r.row(head),
                scratch.fwd.row(head),
                iv.read_modes[head],
                state.read_weightings.row_mut(head),
            );
        }
        laps.lap(KernelId::ReadMerge, heads as u64);

        // MR: memory read  v_r = Mᵀ w_r, every head in one pass over M —
        // one lap counted as the R reads it performs.
        hima_tensor::fused::matvec_t_heads_into(&state.memory, &state.read_weightings, out);
        laps.lap(KernelId::MemoryRead, heads as u64);

        // Fixed-point write-back: round what the step stored.
        if let Datapath::Quantized(format) = self.datapath {
            state.quantize(format, out, &mut laps);
            self.norms.invalidate();
        }
    }

    /// Checks all state invariants: usage in `[0,1]`, weightings
    /// sub-normalized, linkage invariants.
    pub fn check_invariants(&self, tol: f32) -> bool {
        let s = &self.state;
        let usage_ok = s.usage.iter().all(|&u| u >= -tol && u <= 1.0 + tol);
        let ww_ok = hima_tensor::vector::is_weighting(&s.write_weighting, tol);
        let wr_ok = (0..s.read_weightings.rows())
            .all(|h| hima_tensor::vector::is_weighting(s.read_weightings.row(h), tol));
        usage_ok && ww_ok && wr_ok && s.linkage.check_invariants(tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::KernelCategory;

    fn iface(w: usize, r: usize, f: impl Fn(usize) -> f32) -> InterfaceVector {
        let len = w * r + 3 * w + 5 * r + 3;
        let raw: Vec<f32> = (0..len).map(f).collect();
        InterfaceVector::parse(&raw, w, r)
    }

    fn unit(n: usize, w: usize, r: usize) -> MemoryUnit {
        MemoryUnit::new(MemoryConfig::new(n, w, r))
    }

    #[test]
    fn step_produces_read_vectors() {
        let mut mu = unit(16, 4, 2);
        let iv = iface(4, 2, |i| (i as f32 * 0.31).sin());
        let out = mu.step(&iv);
        assert_eq!(out.read_vectors.len(), 2);
        assert_eq!(out.read_vectors[0].len(), 4);
        assert_eq!(out.flattened().len(), 8);
    }

    #[test]
    fn invariants_hold_over_many_steps() {
        let mut mu = unit(12, 4, 2);
        for t in 0..50 {
            let iv = iface(4, 2, |i| ((t * 31 + i * 17) as f32 * 0.13).sin());
            mu.step(&iv);
            assert!(mu.check_invariants(1e-3), "invariants failed at t={t}");
        }
    }

    /// Interface-vector offsets for `W = 4`, `R = 1`: read key [0,4), read
    /// strength [4,5), write key [5,9), write strength [9,10), erase
    /// [10,14), write vec [14,18), free gate [18,19), alloc gate [19,20),
    /// write gate [20,21), read modes [21,24).
    fn write_iface(key: &[f32; 4]) -> InterfaceVector {
        let mut raw = vec![0.0f32; 24];
        raw[5..9].copy_from_slice(key); // write key
        raw[9] = 30.0; // very strong write strength
        raw[14..18].copy_from_slice(key); // write the key itself as content
        raw[19] = 10.0; // allocation gate ~ 1: write to free slot
        raw[20] = 10.0; // write gate ~ 1
        InterfaceVector::parse(&raw, 4, 1)
    }

    fn read_iface(key: &[f32; 4]) -> InterfaceVector {
        let mut raw = vec![0.0f32; 24];
        raw[0..4].copy_from_slice(key); // read key
        raw[4] = 30.0; // very strong read strength
        raw[20] = -10.0; // write gate ~ 0: pure read
        raw[21] = -10.0; // mode: backward off
        raw[22] = 10.0; // mode: content on
        raw[23] = -10.0; // mode: forward off
        InterfaceVector::parse(&raw, 4, 1)
    }

    #[test]
    fn write_then_read_recovers_content() {
        // Write two orthogonal items, then content-read each back. (A
        // single-item test would be degenerate: the tiny `1 − g_a` leak
        // writes leave every row parallel to the key, and cosine similarity
        // is scale-invariant, so all slots would tie.)
        let key_a = [3.0, -2.0, 1.0, 0.5];
        let key_b = [-0.5, 1.0, 2.0, 3.0]; // orthogonal to key_a
        let mut mu = unit(8, 4, 1);
        mu.step(&write_iface(&key_a));
        mu.step(&write_iface(&key_b));

        let out_a = mu.step(&read_iface(&key_a));
        for (got, want) in out_a.read_vectors[0].iter().zip(&key_a) {
            assert!((got - want).abs() < 0.2, "read A {:?} vs {key_a:?}", out_a.read_vectors[0]);
        }
        let out_b = mu.step(&read_iface(&key_b));
        for (got, want) in out_b.read_vectors[0].iter().zip(&key_b) {
            assert!((got - want).abs() < 0.2, "read B {:?} vs {key_b:?}", out_b.read_vectors[0]);
        }
    }

    #[test]
    fn temporal_read_follows_write_order() {
        // Write A then B; content-read A, then a forward-mode read should
        // retrieve B (the slot written right after A's slot).
        let key_a = [3.0, -2.0, 1.0, 0.5];
        let key_b = [-0.5, 1.0, 2.0, 3.0];
        let mut mu = unit(8, 4, 1);
        mu.step(&write_iface(&key_a));
        mu.step(&write_iface(&key_b));
        mu.step(&read_iface(&key_a));

        // Forward read: modes = (backward, content, forward) -> forward.
        let mut raw = vec![0.0f32; 24];
        raw[20] = -10.0;
        raw[21] = -10.0;
        raw[22] = -10.0;
        raw[23] = 10.0; // forward mode
        let out = mu.step(&InterfaceVector::parse(&raw, 4, 1));
        for (got, want) in out.read_vectors[0].iter().zip(&key_b) {
            assert!((got - want).abs() < 0.25, "forward read {:?} vs {key_b:?}", out.read_vectors[0]);
        }
    }

    #[test]
    fn profile_covers_all_memory_categories() {
        let mut mu = unit(16, 4, 2);
        let iv = iface(4, 2, |i| (i as f32 * 0.7).cos());
        mu.step(&iv);
        let p = mu.profile();
        assert!(p.calls(KernelId::Similarity) > 0);
        assert!(p.calls(KernelId::Allocation) > 0);
        assert!(p.calls(KernelId::Linkage) > 0);
        assert!(p.calls(KernelId::MemoryRead) > 0);
        for cat in [
            KernelCategory::ContentWeighting,
            KernelCategory::HistoryWriteWeighting,
            KernelCategory::HistoryReadWeighting,
            KernelCategory::MemoryAccess,
        ] {
            assert!(p.category_nanos(cat) > 0, "{cat:?} missing from profile");
        }
    }

    #[test]
    fn skimming_changes_results_only_slightly() {
        let run = |skim| {
            let mut mu = MemoryUnit::new(MemoryConfig::new(32, 4, 1).with_skim(skim));
            let mut last = Vec::new();
            for t in 0..20 {
                let iv = iface(4, 1, |i| ((t * 11 + i * 5) as f32 * 0.17).sin());
                last = mu.step(&iv).flattened();
            }
            last
        };
        let exact = run(SkimRate::NONE);
        let skimmed = run(SkimRate::new(0.2));
        let err: f32 = exact
            .iter()
            .zip(&skimmed)
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / exact.len() as f32;
        assert!(err < 0.3, "20% skim should only mildly perturb reads, err={err}");
    }

    #[test]
    fn reset_restores_blank_state() {
        let mut mu = unit(8, 4, 1);
        let iv = iface(4, 1, |i| i as f32 * 0.2);
        mu.step(&iv);
        assert!(mu.memory().max_abs() > 0.0);
        mu.reset();
        assert_eq!(mu.memory().max_abs(), 0.0);
        assert!(mu.usage().iter().all(|&u| u == 0.0));
    }

    #[test]
    #[should_panic(expected = "interface word size mismatch")]
    fn rejects_mismatched_interface() {
        let mut mu = unit(8, 4, 1);
        let iv = iface(6, 1, |_| 0.0);
        mu.step(&iv);
    }

    #[test]
    fn step_into_is_bit_identical_to_step_across_features() {
        // The scratch-reusing kernel and the allocating wrapper must agree
        // bit-for-bit across every approximation feature, including the
        // norm cache surviving (and being invalidated) across steps.
        let configs = [
            MemoryConfig::new(16, 4, 2),
            MemoryConfig::new(16, 4, 2).with_skim(SkimRate::new(0.25)),
            MemoryConfig::new(16, 4, 2).with_approx_softmax(true),
        ];
        for cfg in configs {
            let mut a = MemoryUnit::new(cfg);
            let mut b = MemoryUnit::new(cfg);
            let mut flat = vec![0.0; 2 * 4];
            for t in 0..12 {
                let iv = iface(4, 2, |i| ((t * 31 + i * 17) as f32 * 0.13).sin());
                let want = a.step(&iv).flattened();
                b.step_into(&iv, &mut flat);
                assert_eq!(flat, want, "t={t} cfg={cfg:?}");
                assert_eq!(a.memory(), b.memory(), "t={t} cfg={cfg:?}");
                assert_eq!(a.usage(), b.usage());
                assert_eq!(a.read_weightings(), b.read_weightings());
            }
        }
    }

    #[test]
    fn row_norm_cache_tracks_memory_mutations() {
        // After a step the cache holds the post-write norms;
        // quantize_state (datapath rounding) and reset must invalidate it
        // so the next content lookup sees fresh values.
        let mut mu = unit(8, 4, 1);
        let write = write_iface(&[3.0, -2.0, 1.0, 0.5]);
        mu.step(&write);
        let direct = mu.memory().row_norms();
        assert_eq!(mu.norms.norms(), direct, "cache equals a fresh norm pass");
        assert!(mu.norms.valid);

        mu.quantize_state(QFormat::new(4, 4));
        assert!(!mu.norms.valid, "quantize_state must invalidate the cache");
        mu.reset();
        assert!(!mu.norms.valid, "reset must invalidate the cache");
        // Any step's read phase leaves a valid post-write cache behind.
        mu.step(&read_iface(&[1.0, 0.0, 0.0, 0.0]));
        assert!(mu.norms.valid);
        assert_eq!(mu.norms.norms(), mu.memory().row_norms());
    }

    #[test]
    fn in_place_reset_is_a_fresh_unit() {
        let cfg = MemoryConfig::new(12, 4, 2).with_skim(SkimRate::new(0.2));
        let mut used = MemoryUnit::new(cfg);
        for t in 0..5 {
            used.step(&iface(4, 2, |i| ((t * 7 + i) as f32 * 0.19).sin()));
        }
        used.reset();
        let mut fresh = MemoryUnit::new(cfg);
        let iv = iface(4, 2, |i| (i as f32 * 0.3).cos());
        assert_eq!(used.step(&iv), fresh.step(&iv));
    }
}
