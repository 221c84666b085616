//! DNC-D: the distributed DNC of paper §5.1.
//!
//! The external memory and *all* state memories are split row-wise into
//! `N_t` shards. Each shard runs the complete soft write + soft read
//! **locally** on its slice, driven by its own sub interface vector
//! projected from the shared controller state. There is no cross-shard
//! linkage, no global usage sort and no inter-shard traffic — which is
//! exactly what makes the hardware scale (Fig. 5(d)) — and the global read
//! vector is a trainable weighted sum of the shard read vectors:
//! `v_r = Σ_i α_i v_r,i` with `α_i ∈ [0, 1]` (Eq. 4).
//!
//! The merge weights can be fit by least squares against a reference DNC's
//! read vectors ([`ReadMerge::calibrate`]) — the inference-time analogue of
//! the paper's "trainable weights determined by the LSTM".

use crate::allocation::SkimRate;
use crate::dnc::{ModelInit, WeightBlock};
use crate::interface::InterfaceVector;
use crate::lstm::Lstm;
use crate::memory::{MemoryConfig, MemoryUnit};
use crate::profile::{KernelId, KernelProfile};
use crate::DncParams;
use hima_tensor::Matrix;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Minimum total memory elements (`N × W`) before a sequential `DncD`
/// step fans its shards out across threads; smaller models pay more in
/// per-step thread spawns than the shard work saves.
const SHARD_PAR_MIN_ELEMS: usize = 16 * 1024;

/// Trainable read-vector merge weights `α` (Eq. 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadMerge {
    pub(crate) alphas: Vec<f32>,
}

impl ReadMerge {
    /// Uniform merge: `α_i = 1/N_t`.
    pub fn uniform(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self { alphas: vec![1.0 / shards as f32; shards] }
    }

    /// Merge with explicit weights, clamped into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alphas` is empty.
    pub fn from_weights(alphas: Vec<f32>) -> Self {
        assert!(!alphas.is_empty(), "need at least one shard weight");
        Self { alphas: alphas.into_iter().map(|a| a.clamp(0.0, 1.0)).collect() }
    }

    /// Number of shards merged.
    pub fn shards(&self) -> usize {
        self.alphas.len()
    }

    /// Merges per-shard read vectors: `v_r = Σ_i α_i v_r,i`.
    ///
    /// # Panics
    ///
    /// Panics if `shard_reads.len() != shards()` or widths differ.
    pub fn merge(&self, shard_reads: &[Vec<f32>]) -> Vec<f32> {
        let slices: Vec<&[f32]> = shard_reads.iter().map(Vec::as_slice).collect();
        self.merge_slices(&slices)
    }

    /// Borrowing variant of [`ReadMerge::merge`]: merges in-place shard
    /// read buffers without cloning.
    ///
    /// # Panics
    ///
    /// Panics if `shard_reads.len() != shards()` or widths differ.
    pub(crate) fn merge_slices(&self, shard_reads: &[&[f32]]) -> Vec<f32> {
        assert_eq!(shard_reads.len(), self.alphas.len(), "shard count mismatch");
        let width = shard_reads.first().map_or(0, |r| r.len());
        let mut out = vec![0.0; width];
        self.merge_iter_into(shard_reads.iter().copied(), &mut out);
        out
    }

    /// Output-buffer form of [`ReadMerge::merge_slices`] over any slice
    /// iterator: accumulates `Σ_i α_i v_r,i` into `out` (zeroed first)
    /// without allocating — the steady-state merge of a sharded
    /// [`GridEngine`](crate::GridEngine), which merges each lane's
    /// contiguous shard reads straight into the lane's last-read row.
    /// Same shard-order accumulation as [`ReadMerge::merge`], so results
    /// are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields fewer than `shards()` reads or any
    /// read's width differs from `out.len()`.
    pub(crate) fn merge_iter_into<'a>(
        &self,
        shard_reads: impl Iterator<Item = &'a [f32]>,
        out: &mut [f32],
    ) {
        out.fill(0.0);
        let mut merged = 0;
        for (alpha, read) in self.alphas.iter().zip(shard_reads) {
            assert_eq!(read.len(), out.len(), "shard read widths differ");
            for (o, &v) in out.iter_mut().zip(read) {
                *o += alpha * v;
            }
            merged += 1;
        }
        assert_eq!(merged, self.alphas.len(), "shard count mismatch");
    }

    /// Fits `α` by least squares: given per-step shard read vectors and the
    /// reference (centralized DNC) read vectors, minimizes
    /// `Σ_t ‖target_t − Σ_i α_i shard_t,i‖²`, then clamps into `[0,1]`.
    ///
    /// Returns the uniform merge if the normal equations are singular
    /// (e.g. all-zero reads).
    ///
    /// # Panics
    ///
    /// Panics if sample shapes are inconsistent.
    pub fn calibrate(samples: &[(Vec<Vec<f32>>, Vec<f32>)], shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        // Normal equations: (AᵀA) α = Aᵀ b over all (t, element) rows.
        let mut ata = vec![vec![0.0f64; shards]; shards];
        let mut atb = vec![0.0f64; shards];
        for (shard_reads, target) in samples {
            assert_eq!(shard_reads.len(), shards, "sample shard count mismatch");
            let width = target.len();
            for read in shard_reads {
                assert_eq!(read.len(), width, "sample width mismatch");
            }
            for d in 0..width {
                for i in 0..shards {
                    let ai = shard_reads[i][d] as f64;
                    atb[i] += ai * target[d] as f64;
                    for (j, row) in shard_reads.iter().enumerate() {
                        ata[i][j] += ai * row[d] as f64;
                    }
                }
            }
        }
        match solve_spd(&mut ata, &mut atb) {
            Some(alphas) => Self::from_weights(alphas.into_iter().map(|a| a as f32).collect()),
            None => Self::uniform(shards),
        }
    }
}

/// Gaussian elimination with partial pivoting for the (symmetric
/// positive-semidefinite) normal equations. Returns `None` when singular.
fn solve_spd(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate.
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            // Rows `row` and `col` alias inside `a`, so the update reads
            // through indices rather than a borrowed slice pair.
            #[allow(clippy::needless_range_loop)]
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

/// The distributed DNC (DNC-D).
///
/// # Example
///
/// ```
/// use hima_dnc::{DncD, DncParams};
///
/// let params = DncParams::new(32, 4, 1).with_io(3, 3);
/// let mut dncd = DncD::new(params, 4, 7);
/// let y = dncd.step(&[1.0, 0.0, 0.0]);
/// assert_eq!(y.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct DncD {
    params: DncParams,
    shards: Vec<MemoryUnit>,
    controller: Lstm,
    interface_projs: Vec<Matrix>,
    output_proj: Matrix,
    merge: ReadMerge,
    last_read: Vec<f32>,
    last_hidden: Vec<f32>,
    profile: KernelProfile,
}

impl DncD {
    /// Creates a DNC-D with `tiles` shards and an exact per-shard memory
    /// unit. Shard 0's weights match [`crate::Dnc`] built with the same
    /// seed, so `DncD` with one shard is bit-identical to the centralized
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if `tiles == 0` or `tiles > params.memory_size`.
    pub fn new(params: DncParams, tiles: usize, seed: u64) -> Self {
        Self::with_features(params, tiles, seed, SkimRate::NONE, false)
    }

    /// Creates a DNC-D with the approximation features of §5.2 (usage
    /// skimming, PLA+LUT softmax) applied inside every shard.
    ///
    /// # Panics
    ///
    /// Panics if `tiles == 0` or `tiles > params.memory_size`.
    pub(crate) fn with_features(
        params: DncParams,
        tiles: usize,
        seed: u64,
        skim: SkimRate,
        approx_softmax: bool,
    ) -> Self {
        let mem_cfg = MemoryConfig::new(params.memory_size, params.word_size, params.read_heads)
            .with_skim(skim)
            .with_approx_softmax(approx_softmax);
        let init = ModelInit::new(params, mem_cfg, tiles, seed);
        let (input, hidden, lstm_seed) = init.controller();
        Self {
            params,
            controller: Lstm::new(input, hidden, lstm_seed),
            interface_projs: init.interface_projs().map(WeightBlock::matrix).collect(),
            output_proj: init.output_proj().matrix(),
            shards: init.shard_cfgs.into_iter().map(MemoryUnit::new).collect(),
            merge: ReadMerge::uniform(tiles),
            last_read: vec![0.0; params.read_heads * params.word_size],
            last_hidden: vec![0.0; params.hidden_size],
            profile: KernelProfile::new(),
        }
    }

    /// Number of distributed shards `N_t`.
    pub fn tiles(&self) -> usize {
        self.shards.len()
    }

    /// The shard memory units (for inspection).
    pub fn shards(&self) -> &[MemoryUnit] {
        &self.shards
    }

    /// The read-merge weights in use.
    pub(crate) fn merge_weights(&self) -> &ReadMerge {
        &self.merge
    }

    /// The merged global read vector fed to the controller at the next
    /// step (Eq. 4's `v_r`).
    pub fn last_read(&self) -> &[f32] {
        &self.last_read
    }

    /// Merged kernel profile across controller and all shards.
    pub fn profile(&self) -> KernelProfile {
        let mut p = self.profile.clone();
        for s in &self.shards {
            p.merge(s.profile());
        }
        p
    }

    /// Resets memory and recurrent state in place (weights and merge
    /// unchanged).
    pub fn reset(&mut self) {
        self.controller.reset();
        for s in &mut self.shards {
            s.reset();
        }
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

    /// Runs one time step, returning the per-shard read vectors (flattened
    /// per shard) and the output.
    pub(crate) fn step_detailed(&mut self, input: &[f32]) -> (Vec<Vec<f32>>, Vec<f32>) {
        assert_eq!(input.len(), self.params.input_size, "input width mismatch");

        let mut ctrl_in = Vec::with_capacity(input.len() + self.last_read.len());
        ctrl_in.extend_from_slice(input);
        ctrl_in.extend_from_slice(&self.last_read);
        let controller = &mut self.controller;
        let hidden = self.profile.time(KernelId::Lstm, || controller.step(&ctrl_in));

        // Each shard gets its own sub interface vector (projected from
        // [h ; x], matching `Dnc`) and executes the full soft write + soft
        // read locally. Shards are mutually independent, so above a work
        // threshold they fan out across rayon worker threads (the shard
        // half of the 2-D lane × shard decomposition); below it the
        // per-step thread-spawn overhead of tiny test models would
        // dominate. Results land in per-shard slots either way, so the
        // outcome is bit-identical at any thread count.
        let mut iface_in = Vec::with_capacity(hidden.len() + input.len());
        iface_in.extend_from_slice(&hidden);
        iface_in.extend_from_slice(input);
        let (w, r) = (self.params.word_size, self.params.read_heads);
        let mut shard_reads: Vec<Vec<f32>> = vec![Vec::new(); self.shards.len()];
        let parallel = self.shards.len() > 1
            && self.params.memory_size * self.params.word_size >= SHARD_PAR_MIN_ELEMS;
        if parallel {
            let iface = &iface_in;
            let projs = &self.interface_projs;
            let mut tasks: Vec<(&mut MemoryUnit, &mut Vec<f32>)> =
                self.shards.iter_mut().zip(shard_reads.iter_mut()).collect();
            tasks.par_iter_mut().enumerate().for_each(|(s, (shard, out))| {
                let raw = projs[s].matvec(iface);
                let iv = InterfaceVector::parse(&raw, w, r);
                **out = shard.step(&iv).flattened();
            });
        } else {
            for ((shard, proj), out) in
                self.shards.iter_mut().zip(&self.interface_projs).zip(shard_reads.iter_mut())
            {
                let raw = proj.matvec(&iface_in);
                let iv = InterfaceVector::parse(&raw, w, r);
                *out = shard.step(&iv).flattened();
            }
        }

        // Global read vector: trainable weighted sum (Eq. 4).
        self.last_read = self.merge.merge(&shard_reads);

        let mut out_in = Vec::with_capacity(hidden.len() + self.last_read.len());
        out_in.extend_from_slice(&hidden);
        out_in.extend_from_slice(&self.last_read);
        let y = self.output_proj.matvec(&out_in);
        self.last_hidden = hidden;

        (shard_reads, y)
    }

    /// Runs a whole input sequence, returning one output per step.
    pub fn run_sequence(&mut self, inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        inputs.iter().map(|x| self.step(x)).collect()
    }

    /// Calibrates the merge weights against a reference DNC on a
    /// calibration sequence: both models are reset, run over `inputs`, and
    /// `α` is fit to the reference's read vectors, then both are reset
    /// again.
    pub(crate) fn calibrate_against(&mut self, reference: &mut crate::Dnc, inputs: &[Vec<f32>]) {
        reference.reset();
        self.reset();
        let mut samples = Vec::with_capacity(inputs.len());
        for x in inputs {
            let (_, _y_ref) = reference.step_detailed(x);
            let target = reference.last_read().to_vec();
            let (shard_reads, _) = self.step_detailed(x);
            samples.push((shard_reads, target));
        }
        self.merge = ReadMerge::calibrate(&samples, self.shards.len());
        reference.reset();
        self.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dnc;

    fn params() -> DncParams {
        DncParams::new(16, 4, 1).with_hidden(16).with_io(4, 4)
    }

    #[test]
    fn single_shard_matches_centralized_dnc() {
        let mut dnc = Dnc::new(params(), 99);
        let mut dncd = DncD::new(params(), 1, 99);
        dncd.merge = ReadMerge::from_weights(vec![1.0]);
        for t in 0..10 {
            let x: Vec<f32> = (0..4).map(|i| ((t * 5 + i) as f32 * 0.21).sin()).collect();
            let a = dnc.step(&x);
            let b = dncd.step(&x);
            hima_tensor::assert_close(&a, &b, 1e-5);
        }
    }

    #[test]
    fn output_width_matches() {
        let mut dncd = DncD::new(params(), 4, 3);
        assert_eq!(dncd.step(&[0.1; 4]).len(), 4);
        assert_eq!(dncd.tiles(), 4);
    }

    #[test]
    fn shards_split_all_memory_rows() {
        let dncd = DncD::new(params(), 4, 3);
        let total: usize = dncd.shards().iter().map(|s| s.config().memory_size).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn uneven_shard_split_covers_memory() {
        let p = DncParams::new(10, 4, 1).with_io(4, 4);
        let dncd = DncD::new(p, 3, 1);
        let total: usize = dncd.shards().iter().map(|s| s.config().memory_size).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mut a = DncD::new(params(), 4, 42);
        let mut b = DncD::new(params(), 4, 42);
        let x = [0.3, -0.1, 0.7, 0.0];
        assert_eq!(a.step(&x), b.step(&x));
    }

    #[test]
    fn divergence_grows_with_tiles() {
        // More shards -> smaller local memories -> larger deviation from
        // the centralized model (the effect Fig. 10 quantifies).
        let inputs: Vec<Vec<f32>> = (0..30)
            .map(|t| (0..4).map(|i| ((t * 7 + i * 3) as f32 * 0.17).sin()).collect())
            .collect();
        let mut reference = Dnc::new(params(), 7);
        let ref_out = reference.run_sequence(&inputs);

        let mut err = Vec::new();
        for tiles in [1usize, 4, 8] {
            let mut dncd = DncD::new(params(), tiles, 7);
            if tiles == 1 {
                dncd.merge = ReadMerge::from_weights(vec![1.0]);
            }
            let out = dncd.run_sequence(&inputs);
            let e: f32 = ref_out
                .iter()
                .zip(&out)
                .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y).abs()))
                .sum();
            err.push(e);
        }
        assert!(err[0] < 1e-3, "1 shard should match: {}", err[0]);
        assert!(err[1] > err[0], "4 shards should diverge: {err:?}");
    }

    #[test]
    fn read_merge_weighted_sum() {
        let m = ReadMerge::from_weights(vec![0.5, 0.25]);
        let merged = m.merge(&[vec![2.0, 4.0], vec![4.0, 8.0]]);
        assert_eq!(merged, vec![2.0, 4.0]);
    }

    #[test]
    fn read_merge_clamps_weights() {
        let m = ReadMerge::from_weights(vec![-0.5, 1.5]);
        assert_eq!(m.alphas, [0.0, 1.0]);
    }

    #[test]
    fn calibration_recovers_known_mixture() {
        // Target = 0.7 * shard0 + 0.3 * shard1 exactly.
        let samples: Vec<(Vec<Vec<f32>>, Vec<f32>)> = (0..20)
            .map(|t| {
                let s0: Vec<f32> = (0..4).map(|i| ((t * 3 + i) as f32 * 0.37).sin()).collect();
                let s1: Vec<f32> = (0..4).map(|i| ((t * 5 + i) as f32 * 0.23).cos()).collect();
                let target: Vec<f32> =
                    s0.iter().zip(&s1).map(|(a, b)| 0.7 * a + 0.3 * b).collect();
                (vec![s0, s1], target)
            })
            .collect();
        let m = ReadMerge::calibrate(&samples, 2);
        assert!((m.alphas[0] - 0.7).abs() < 1e-3, "{:?}", m.alphas);
        assert!((m.alphas[1] - 0.3).abs() < 1e-3, "{:?}", m.alphas);
    }

    #[test]
    fn calibration_singular_falls_back_to_uniform() {
        let samples = vec![(vec![vec![0.0; 4], vec![0.0; 4]], vec![0.0; 4])];
        let m = ReadMerge::calibrate(&samples, 2);
        assert_eq!(m, ReadMerge::uniform(2));
    }

    #[test]
    fn calibrate_against_reduces_error() {
        let inputs: Vec<Vec<f32>> = (0..40)
            .map(|t| (0..4).map(|i| ((t * 11 + i * 3) as f32 * 0.13).sin()).collect())
            .collect();
        let mut reference = Dnc::new(params(), 31);
        let ref_out = reference.run_sequence(&inputs);
        reference.reset();

        let err_of = |dncd: &mut DncD| -> f32 {
            dncd.reset();
            let out = dncd.run_sequence(&inputs);
            ref_out
                .iter()
                .zip(&out)
                .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y).powi(2)))
                .sum()
        };

        let mut dncd = DncD::new(params(), 4, 31);
        let before = err_of(&mut dncd);
        dncd.calibrate_against(&mut reference, &inputs);
        let after = err_of(&mut dncd);
        assert!(after <= before * 1.05, "calibration regressed: {before} -> {after}");
    }

    #[test]
    #[should_panic(expected = "more tiles than memory rows")]
    fn rejects_oversharding() {
        DncD::new(DncParams::new(4, 4, 1), 8, 0);
    }

    #[test]
    fn profile_aggregates_shards() {
        let mut dncd = DncD::new(params(), 4, 5);
        dncd.step(&[0.1; 4]);
        let p = dncd.profile();
        assert_eq!(p.calls(KernelId::Lstm), 1);
        assert_eq!(p.calls(KernelId::MemoryRead), 4, "one read per shard");
    }
}
