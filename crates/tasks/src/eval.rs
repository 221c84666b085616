//! Engine-vs-reference relative-error evaluation (the Fig. 10 harness).
//!
//! The engine under test (any [`EngineSpec`] — sharded DNC-D, a
//! fixed-point datapath, skimming, or combinations) shares weights (same
//! seed) with a monolithic f32 reference and consumes the same episodes.
//! For sharded engines the read-merge weights `α` are first fit on a
//! calibration split (the paper's "trainable weighted summation"); the
//! reported error is the fraction of query steps where the *retrieved
//! memory content* diverges — argmax of the engine's (merged) read vector
//! vs argmax of the reference's read vector. Judging on read vectors
//! rather than the final output isolates the quantity the variant
//! approximates (the output projection is dominated by the shared
//! controller state and would mask the divergence).
//!
//! Both models run through the one [`hima_dnc::GridEngine`]
//! stepping API, one batch lane per episode.

use crate::episode::Episode;
use crate::tasks::{TaskSpec, TASKS, TOKEN_WIDTH};
use hima_dnc::allocation::SkimRate;
use hima_dnc::{Datapath, DncParams, EngineBuilder, EngineSpec};

/// Evaluation configuration.
///
/// The variant under test is named by a full [`EngineSpec`] (topology ×
/// datapath × approximation features) rather than a bare tile count, so
/// one config type covers every axis the [`EngineBuilder`] exposes. The
/// presets route through one private base config; [`EvalConfig::small`]
/// and [`EvalConfig::saturated`] are the overrides the experiment
/// binaries and tests use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalConfig {
    /// The engine variant under test (the reference is always the
    /// monolithic f32 engine with the same weights).
    pub engine: EngineSpec,
    /// Memory rows `N` of the centralized reference.
    pub memory_size: usize,
    /// Word size `W`.
    pub word_size: usize,
    /// Read heads `R`.
    pub read_heads: usize,
    /// Controller width.
    pub hidden_size: usize,
    /// Episodes per task used for α calibration.
    pub calibration_episodes: usize,
    /// Episodes per task used for evaluation.
    pub eval_episodes: usize,
    /// Weight/episode seed.
    pub seed: u64,
}

impl EvalConfig {
    /// The shared base: small, fast geometry suitable for tests and the
    /// Fig. 10 experiment, with a monolithic f32 engine spec.
    fn base() -> Self {
        Self {
            engine: EngineSpec::monolithic(),
            memory_size: 64,
            word_size: 16,
            read_heads: 2,
            hidden_size: 32,
            calibration_episodes: 2,
            eval_episodes: 4,
            seed: 2021,
        }
    }

    /// A small, fast configuration testing a `tiles`-shard DNC-D.
    pub fn small(tiles: usize) -> Self {
        Self { engine: EngineSpec::sharded(tiles), ..Self::base() }
    }

    /// Memory-saturated configuration: shards small enough (8 rows at
    /// `tiles = 4`) that an episode fills every slot. Usage skimming only
    /// affects behaviour once no zero-usage slot remains — the allocation
    /// prefix product is exactly zero past the first free slot otherwise —
    /// so this is the regime (long bAbI stories on a finite memory) where
    /// the K-sweep of Fig. 10 is meaningful.
    pub fn saturated(tiles: usize) -> Self {
        Self { memory_size: 32, ..Self::small(tiles) }
    }

    /// Applies a skimming rate to the engine under test.
    pub fn with_skim(mut self, k: SkimRate) -> Self {
        self.engine.skim = k;
        self
    }

    /// Applies a datapath to the engine under test.
    pub fn with_datapath(mut self, datapath: Datapath) -> Self {
        self.engine.datapath = datapath;
        self
    }

    /// The shard count of the engine under test (1 for monolithic).
    pub fn tiles(&self) -> usize {
        self.engine.tiles()
    }

    fn params(&self) -> DncParams {
        DncParams::new(self.memory_size, self.word_size, self.read_heads)
            .with_hidden(self.hidden_size)
            .with_io(TOKEN_WIDTH, TOKEN_WIDTH)
    }

    /// The monolithic f32 reference builder (shared weights via the
    /// shared seed).
    pub(crate) fn reference_builder(&self) -> EngineBuilder {
        EngineBuilder::new(self.params()).seed(self.seed)
    }

    /// The builder for the engine under test (uncalibrated; the harness
    /// uses [`EvalConfig::calibrated_engine_builder`]).
    pub(crate) fn engine_builder(&self) -> EngineBuilder {
        EngineBuilder::new(self.params()).with_spec(self.engine).seed(self.seed)
    }

    /// The engine-under-test builder with its read-merge weights `α` fit
    /// on the task's calibration split (a no-op for monolithic specs).
    pub(crate) fn calibrated_engine_builder(&self, task: &TaskSpec) -> EngineBuilder {
        let calib = self.calibration_split(task);
        let calib_inputs: Vec<Vec<f32>> =
            calib.episodes.iter().flat_map(|e| e.inputs.clone()).collect();
        self.engine_builder().calibrated(&calib_inputs)
    }

    /// The held-out episodes used to calibrate `α` for `task`.
    pub(crate) fn calibration_split(&self, task: &TaskSpec) -> crate::episode::EpisodeBatch {
        task.generate(self.calibration_episodes, self.seed ^ 0xCA11B)
    }

    /// The episodes evaluated for `task` (generated from
    /// [`EvalConfig::evaluation_seed`]).
    pub(crate) fn evaluation_split(&self, task: &TaskSpec) -> crate::episode::EpisodeBatch {
        task.generate(self.eval_episodes, self.evaluation_seed())
    }

    /// The evaluation split's base seed, kept apart from the calibration
    /// split's so the two never share an episode stream.
    pub(crate) fn evaluation_seed(&self) -> u64 {
        self.seed ^ 0xE7A1
    }
}

/// Per-task relative error.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskError {
    /// Task id (1-20).
    pub task_id: usize,
    /// Task name.
    pub name: &'static str,
    /// Fraction of query steps where the engine's retrieved content
    /// (read-vector argmax) diverges from the reference's, in `[0,1]`.
    pub error: f64,
    /// Mean normalized L2 distance between the two read vectors at query
    /// steps — a continuous divergence measure that resolves perturbations
    /// (e.g. light usage skimming) too small to flip an argmax.
    pub divergence: f64,
}

/// Runs the full 20-task suite, returning per-task relative errors.
pub fn relative_error(config: &EvalConfig) -> Vec<TaskError> {
    TASKS.iter().map(|task| task_error(config, task)).collect()
}

/// Mean error across tasks.
pub fn mean_error(errors: &[TaskError]) -> f64 {
    if errors.is_empty() {
        return 0.0;
    }
    errors.iter().map(|e| e.error).sum::<f64>() / errors.len() as f64
}

/// Mean divergence across tasks.
pub fn mean_divergence(errors: &[TaskError]) -> f64 {
    if errors.is_empty() {
        return 0.0;
    }
    errors.iter().map(|e| e.divergence).sum::<f64>() / errors.len() as f64
}

/// The relative-error partial contributed by one episode: query counts,
/// argmax disagreements, and the running divergence sum at that episode's
/// query steps.
///
/// [`relative_error`] computes one partial per episode and folds them in
/// episode-index order; floating-point addition is order-sensitive, so
/// that order is part of the result's bits.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct QueryStats {
    /// Query steps examined.
    pub queries: usize,
    /// Query steps whose read-vector argmax diverged from the reference.
    pub disagreements: usize,
    /// Sum of normalized L2 distances at the query steps.
    pub divergence_sum: f64,
}

impl QueryStats {
    /// Accumulates another episode's partial. The fold order is the bit
    /// pattern of the result — callers fold in episode-index order.
    pub(crate) fn accumulate(&mut self, other: &QueryStats) {
        self.queries += other.queries;
        self.disagreements += other.disagreements;
        self.divergence_sum += other.divergence_sum;
    }
}

/// Computes one episode's [`QueryStats`] from the reference's and the
/// engine-under-test's per-step read vectors (`reads[step]`).
pub(crate) fn episode_query_stats(
    episode: &Episode,
    ref_reads: &[Vec<f32>],
    dut_reads: &[Vec<f32>],
) -> QueryStats {
    let mut stats = QueryStats::default();
    for &q in &episode.query_steps {
        stats.queries += 1;
        if argmax(&ref_reads[q]) != argmax(&dut_reads[q]) {
            stats.disagreements += 1;
        }
        stats.divergence_sum += normalized_l2(&ref_reads[q], &dut_reads[q]);
    }
    stats
}

/// Folds per-episode partials (in episode-index order) into the task's
/// [`TaskError`].
pub(crate) fn task_error_from_stats(task: &TaskSpec, stats: &[QueryStats]) -> TaskError {
    let mut total = QueryStats::default();
    for s in stats {
        total.accumulate(s);
    }
    let error = if total.queries == 0 {
        0.0
    } else {
        total.disagreements as f64 / total.queries as f64
    };
    let divergence = if total.queries == 0 {
        0.0
    } else {
        total.divergence_sum / total.queries as f64
    };
    TaskError { task_id: task.id, name: task.name, error, divergence }
}

fn task_error(config: &EvalConfig, task: &TaskSpec) -> TaskError {
    // Calibrate α against the reference on held-out episodes (no-op for
    // monolithic engine specs).
    let engine_builder = config.calibrated_engine_builder(task);

    let eval = config.evaluation_split(task);
    let ref_reads = collect_reads(&config.reference_builder(), &eval.episodes);
    let dut_reads = collect_reads(&engine_builder, &eval.episodes);

    let stats: Vec<QueryStats> = eval
        .episodes
        .iter()
        .enumerate()
        .map(|(b, episode)| episode_query_stats(episode, &ref_reads[b], &dut_reads[b]))
        .collect();
    task_error_from_stats(task, &stats)
}

/// `‖a − b‖ / (‖a‖ + ε)`.
fn normalized_l2(a: &[f32], b: &[f32]) -> f64 {
    let diff: f64 = a.iter().zip(b).map(|(x, y)| ((x - y) as f64).powi(2)).sum::<f64>().sqrt();
    let norm: f64 = a.iter().map(|x| (*x as f64).powi(2)).sum::<f64>().sqrt();
    diff / (norm + 1e-9)
}

/// Builds one engine and drives it over every episode through the
/// [`hima_dnc::GridEngine`] API, collecting the *read vectors* (the
/// retrieved memory content) at every step of every episode:
/// `result[episode][step]`. One shared implementation with the trained
/// harness: [`crate::train::episode_features`] — batched one lane per
/// episode for uniform *and* ragged lists alike (ragged lists pad to the
/// longest episode and mask the tail; there is no single-lane fallback).
fn collect_reads(builder: &EngineBuilder, episodes: &[Episode]) -> Vec<Vec<Vec<f32>>> {
    crate::train::episode_features(builder, episodes)
}

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use hima_tensor::QFormat;

    #[test]
    fn single_tile_has_zero_error() {
        // DNC-D with one shard and α = 1 is the centralized model; after
        // calibration the least-squares fit recovers α ≈ 1.
        let errors = relative_error(&EvalConfig::small(1));
        let mean = mean_error(&errors);
        assert!(mean < 0.05, "1-tile mean error {mean}");
    }

    #[test]
    fn error_grows_with_tiles() {
        // Fig. 10: the error rate of DNC-D increases with N_t.
        let e2 = mean_error(&relative_error(&EvalConfig::small(2)));
        let e8 = mean_error(&relative_error(&EvalConfig::small(8)));
        assert!(
            e8 >= e2,
            "error must not shrink with more shards: Nt=2 {e2:.3} vs Nt=8 {e8:.3}"
        );
    }

    #[test]
    fn heavy_skimming_hurts_more_than_light() {
        // Fig. 10: K=50% degrades clearly beyond K=20%. Judged on the
        // continuous divergence metric in the memory-saturated regime
        // (skimming is exactly free while zero-usage slots remain — the
        // allocation prefix product past the first free slot is zero).
        let base = EvalConfig::saturated(4);
        let none = mean_divergence(&relative_error(&base));
        let heavy = mean_divergence(&relative_error(&base.with_skim(SkimRate::new(0.6))));
        assert!(
            heavy >= none,
            "skimming must not reduce divergence: {none:.4} vs {heavy:.4}"
        );
        assert!(heavy > none, "K=60% must measurably diverge: {none:.4} vs {heavy:.4}");
    }

    #[test]
    fn quantized_datapath_diverges_but_tracks() {
        // The Q16.16 datapath axis runs through the same harness: the
        // fixed-point engine must measurably diverge from the f32
        // reference yet stay a close approximation on this small model.
        let f32_cfg = EvalConfig::small(4);
        let q_cfg = f32_cfg.with_datapath(Datapath::Quantized(QFormat::q16_16()));
        let f = mean_divergence(&relative_error(&f32_cfg));
        let q = mean_divergence(&relative_error(&q_cfg));
        assert!(q > 0.0, "quantization must be observable");
        assert!(q < 2.0, "Q16.16 should stay a bounded approximation: {q}");
        // Sanity: both specs exercise the same sharding, so the
        // quantization effect rides on top of the sharding divergence.
        assert!((q - f).abs() < 1.0, "datapath effect implausibly large: {f} vs {q}");
    }

    #[test]
    fn monolithic_spec_matches_reference_exactly() {
        // A monolithic f32 engine under test *is* the reference.
        let cfg = EvalConfig { engine: EngineSpec::monolithic(), ..EvalConfig::base() };
        let errors = relative_error(&cfg);
        assert_eq!(mean_error(&errors), 0.0);
        assert_eq!(mean_divergence(&errors), 0.0);
    }

    #[test]
    fn errors_cover_all_tasks_and_are_probabilities() {
        let errors = relative_error(&EvalConfig::small(4));
        assert_eq!(errors.len(), 20);
        for e in &errors {
            assert!((0.0..=1.0).contains(&e.error), "task {}: {}", e.task_id, e.error);
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let a = relative_error(&EvalConfig::small(4));
        let b = relative_error(&EvalConfig::small(4));
        assert_eq!(a, b);
    }

    #[test]
    fn evaluation_deterministic_across_thread_counts() {
        // Lane/shard parallelism must not perturb results: per-lane state
        // and deterministic merges make the batched harness
        // bit-deterministic whether it runs on one worker thread or many.
        let cfg = EvalConfig::small(2);
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| relative_error(&cfg));
        let four = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(|| relative_error(&cfg));
        assert_eq!(one, four);
    }

    #[test]
    fn stats_fold_handles_zero_queries() {
        let task = &TASKS[0];
        let zero = task_error_from_stats(task, &[]);
        assert_eq!(zero.error, 0.0);
        assert_eq!(zero.divergence, 0.0);
        let none = task_error_from_stats(task, &[QueryStats::default()]);
        assert_eq!(none.error, 0.0);
    }

    #[test]
    fn episode_stats_count_disagreements() {
        let episode = Episode::new(vec![vec![0.0, 1.0]; 3], vec![0, 2]);
        let reference = vec![vec![1.0, 0.0], vec![0.0, 0.0], vec![0.0, 1.0]];
        let agree = episode_query_stats(&episode, &reference, &reference);
        assert_eq!((agree.queries, agree.disagreements), (2, 0));
        assert_eq!(agree.divergence_sum, 0.0);
        let flipped = vec![vec![0.0, 1.0], vec![0.0, 0.0], vec![1.0, 0.0]];
        let differ = episode_query_stats(&episode, &reference, &flipped);
        assert_eq!((differ.queries, differ.disagreements), (2, 2));
        assert!(differ.divergence_sum > 0.0);
    }

    #[test]
    fn ragged_eval_reads_match_sequential_reference() {
        // The eval harness's read collection routes ragged lists through
        // the masked batched grid (no single-lane fallback): reference
        // and engine-under-test reads — and the QueryStats computed from
        // them — are bit-identical to per-episode sequential stepping.
        let task = TASKS[0].with_jitter(3);
        let eval = task.generate(5, 21).episodes;
        assert!(crate::episode::uniform_len(&eval).is_none(), "workload must be ragged");
        let cfg = EvalConfig::small(2);
        for builder in [cfg.reference_builder(), cfg.engine_builder()] {
            let batched = crate::train::episode_features(&builder, &eval);
            let mut single = builder.clone().lanes(1).build();
            let sequential = crate::train::sequential_episode_features(&mut single, &eval);
            assert_eq!(batched, sequential);
        }
        let ref_reads = crate::train::episode_features(&cfg.reference_builder(), &eval);
        let dut_reads = crate::train::episode_features(&cfg.engine_builder(), &eval);
        let stats: Vec<QueryStats> = eval
            .iter()
            .enumerate()
            .map(|(b, e)| episode_query_stats(e, &ref_reads[b], &dut_reads[b]))
            .collect();
        let err = task_error_from_stats(&task, &stats);
        assert!((0.0..=1.0).contains(&err.error));
        assert!(stats.iter().map(|s| s.queries).sum::<usize>() > 0);
    }

    #[test]
    fn argmax_picks_first_max() {
        assert_eq!(argmax(&[0.1, 0.9, 0.9]), 1);
        assert_eq!(argmax(&[]), 0);
    }
}
