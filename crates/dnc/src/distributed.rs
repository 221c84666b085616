//! DNC-D's read merge (paper §5.1).
//!
//! The distributed DNC splits the external memory and *all* state
//! memories row-wise into `N_t` shards ([`Topology::Sharded`]). Each shard
//! runs the complete soft write + soft read **locally** on its slice,
//! driven by its own sub interface vector projected from the shared
//! controller state. There is no cross-shard linkage, no global usage
//! sort and no inter-shard traffic — which is exactly what makes the
//! hardware scale (Fig. 5(d)) — and the global read vector is a trainable
//! weighted sum of the shard read vectors: `v_r = Σ_i α_i v_r,i` with
//! `α_i ∈ [0, 1]` (Eq. 4), a [`ReadMerge`].
//!
//! The merge weights can be fit by least squares against the centralized
//! model's read vectors ([`ReadMerge::calibrate`],
//! [`EngineBuilder::calibrated`]) — the inference-time analogue of the
//! paper's "trainable weights determined by the LSTM".
//!
//! [`Topology::Sharded`]: crate::Topology::Sharded
//! [`EngineBuilder::calibrated`]: crate::EngineBuilder::calibrated

/// Trainable read-vector merge weights `α` (Eq. 4).
#[derive(Debug, Clone, PartialEq)]
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

#[cfg(test)]
mod tests {
    //! The merge, and DNC-D as the engine runs it: the sharded one-lane
    //! grid.
    use super::*;
    use crate::builder::{BoxedEngine, EngineBuilder};
    use crate::profile::KernelId;
    use crate::DncParams;

    fn params() -> DncParams {
        DncParams::new(16, 4, 1).with_hidden(16).with_io(4, 4)
    }

    fn dncd(tiles: usize, seed: u64) -> BoxedEngine {
        EngineBuilder::new(params()).sharded(tiles).seed(seed).build()
    }

    fn run(engine: &mut BoxedEngine, inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        inputs.iter().map(|x| engine.step(x)).collect()
    }

    #[test]
    fn single_shard_matches_centralized_dnc() {
        let mut dnc = EngineBuilder::new(params()).seed(99).build();
        let mut dncd = EngineBuilder::new(params())
            .sharded(1)
            .merge(ReadMerge::from_weights(vec![1.0]))
            .seed(99)
            .build();
        for t in 0..10 {
            let x: Vec<f32> = (0..4).map(|i| ((t * 5 + i) as f32 * 0.21).sin()).collect();
            hima_tensor::assert_close(&dnc.step(&x), &dncd.step(&x), 1e-5);
        }
    }

    #[test]
    fn output_width_matches() {
        let mut dncd = dncd(4, 3);
        assert_eq!(dncd.step(&[0.1; 4]).len(), 4);
        assert_eq!(dncd.tiles(), 4);
    }

    #[test]
    fn shards_split_all_memory_rows() {
        let dncd = dncd(4, 3);
        let total: usize = (0..4).map(|s| dncd.unit(0, s).config().memory_size).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn uneven_shard_split_covers_memory() {
        let p = DncParams::new(10, 4, 1).with_io(4, 4);
        let dncd = EngineBuilder::new(p).sharded(3).seed(1).build();
        let total: usize = (0..3).map(|s| dncd.unit(0, s).config().memory_size).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let x = [0.3, -0.1, 0.7, 0.0];
        assert_eq!(dncd(4, 42).step(&x), dncd(4, 42).step(&x));
    }

    #[test]
    fn divergence_grows_with_tiles() {
        // More shards -> smaller local memories -> larger deviation from
        // the centralized model (the effect Fig. 10 quantifies).
        let inputs: Vec<Vec<f32>> = (0..30)
            .map(|t| (0..4).map(|i| ((t * 7 + i * 3) as f32 * 0.17).sin()).collect())
            .collect();
        let ref_out = run(&mut EngineBuilder::new(params()).seed(7).build(), &inputs);

        let mut err = Vec::new();
        for tiles in [1usize, 4, 8] {
            let out = run(&mut dncd(tiles, 7), &inputs);
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
        let ref_out = run(&mut EngineBuilder::new(params()).seed(31).build(), &inputs);
        let err_of = |builder: EngineBuilder| -> f32 {
            let out = run(&mut builder.build(), &inputs);
            ref_out
                .iter()
                .zip(&out)
                .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y).powi(2)))
                .sum()
        };
        let sharded = EngineBuilder::new(params()).sharded(4).seed(31);
        let before = err_of(sharded.clone());
        let after = err_of(sharded.calibrated(&inputs));
        assert!(after <= before * 1.05, "calibration regressed: {before} -> {after}");
    }

    #[test]
    #[should_panic(expected = "more tiles than memory rows")]
    fn rejects_oversharding() {
        let _ = EngineBuilder::new(DncParams::new(4, 4, 1)).sharded(8);
    }

    #[test]
    fn profile_aggregates_shards() {
        let mut dncd = EngineBuilder::new(params()).sharded(4).seed(5).profiling(true).build();
        dncd.step(&[0.1; 4]);
        let p = dncd.profile();
        assert_eq!(p.calls(KernelId::Lstm), 1);
        assert_eq!(p.calls(KernelId::MemoryRead), 4, "one read per shard");
    }
}
