//! Trained readout: reservoir-style ridge regression on the DNC features.
//!
//! Training a full DNC end-to-end needs BPTT through every memory
//! operation — out of scope for a hardware reproduction (and unnecessary:
//! see DESIGN.md). What *can* be trained cheaply and principally is the
//! output readout: treat the DNC (controller + memory) as a fixed
//! recurrent reservoir and fit a linear map from its feature vector
//! `[h_t ; v_r]` to one-hot answer targets by ridge regression, exactly as
//! in echo-state networks. The readout sees the *read vectors* only — see
//! [`sequential_episode_features`] for why — yielding absolute retrieval
//! accuracy for any engine variant: if a sharded or quantized engine
//! retrieves worse content, its trained readout answers fewer queries
//! correctly.
//!
//! Callers pass an [`EngineBuilder`] naming the variant, and the episode
//! runner builds one batch lane per episode.

use crate::episode::{masked_step_block, max_len, Episode};
use crate::tasks::{TaskSpec, TASKS, VOCAB};
use hima_dnc::{DncParams, EngineBuilder, GridEngine};
use hima_tensor::linalg::ridge_regression;
use hima_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A linear readout `y = W f` trained by ridge regression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedReadout {
    weights: Matrix,
}

impl TrainedReadout {
    /// Fits the readout on `(feature, one-hot target)` rows.
    ///
    /// Falls back to a zero readout if the (regularized) normal equations
    /// are singular — only possible with `lambda <= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `features` and `targets` disagree on row count or either
    /// is empty.
    pub fn fit(features: &Matrix, targets: &Matrix, lambda: f32) -> Self {
        let weights = ridge_regression(features, targets, lambda)
            .unwrap_or_else(|| Matrix::zeros(targets.cols(), features.cols()));
        Self { weights }
    }

    /// Predicted class scores for one feature vector.
    pub fn predict(&self, features: &[f32]) -> Vec<f32> {
        self.weights.matvec(features)
    }

    /// Predicted class (argmax of the scores).
    pub(crate) fn predict_class(&self, features: &[f32]) -> usize {
        let scores = self.predict(features);
        let mut best = 0;
        for (i, &s) in scores.iter().enumerate().skip(1) {
            if s > scores[best] {
                best = i;
            }
        }
        best
    }
}

/// The one-episode-at-a-time feature runner: resets the single-lane
/// `model` before each episode and collects the feature vector at every
/// step. This is the sequential *reference* the batched
/// [`episode_features`] is conformance-tested against (workspace
/// `tests/ragged_conformance.rs`).
///
/// The features are the **read vectors only** (not the controller hidden
/// state): at a query step the controller trivially echoes the probed
/// token, so a readout over `[h ; v_r]` would answer without touching the
/// memory and mask the retrieval-quality difference between engine
/// variants. Restricting the readout to `v_r` makes the trained accuracy
/// measure exactly what the memory returned.
///
/// # Panics
///
/// Panics if `model` has more than one lane.
pub fn sequential_episode_features(
    model: &mut GridEngine,
    episodes: &[Episode],
) -> Vec<Vec<Vec<f32>>> {
    episodes
        .iter()
        .map(|ep| {
            model.reset();
            ep.inputs
                .iter()
                .map(|x| {
                    model.step(x);
                    model.last_read_row(0).to_vec()
                })
                .collect()
        })
        .collect()
}

/// Runs every episode from blank state through an engine built from
/// `builder` and returns the read-vector features at every step of every
/// episode: `result[episode][step]` (so `result[b].len() ==
/// episodes[b].len()` even for ragged lists).
///
/// Every episode list — uniform or ragged — runs **batched**, one lane
/// per episode through shared weights: the lane grid steps to the
/// longest episode, shorter lanes dropping out of the per-step
/// [`LaneMask`](hima_dnc::LaneMask) as their episodes end
/// ([`masked_step_block`]), their state frozen by
/// [`step_batch_masked`](GridEngine::step_batch_masked). Bit-identical
/// to [`sequential_episode_features`] on a single-lane engine
/// (workspace ragged conformance suite); a uniform list degenerates to
/// fully-active masks, i.e. exactly the old lock-step fast path. The
/// previous single-lane ragged fallback is gone.
pub fn episode_features(builder: &EngineBuilder, episodes: &[Episode]) -> Vec<Vec<Vec<f32>>> {
    if episodes.is_empty() {
        return Vec::new();
    }
    let steps = max_len(episodes).expect("non-empty list");
    let mut engine = builder.clone().lanes(episodes.len()).build();
    let mut features: Vec<Vec<Vec<f32>>> =
        episodes.iter().map(|e| Vec::with_capacity(e.len())).collect();
    // One reused output block: the engine's workspace makes the step
    // itself allocation-free, and `_into` keeps the discarded outputs
    // from allocating either.
    let mut y = Matrix::zeros(episodes.len(), builder.params().output_size);
    for t in 0..steps {
        let (block, mask) = masked_step_block(episodes, t);
        engine.step_batch_masked_into(&block, &mask, &mut y);
        for lane in mask.active_lanes() {
            features[lane].push(engine.last_read_row(lane).to_vec());
        }
    }
    features
}

/// Collects `(features, one-hot targets)` at the query steps of episodes
/// whose answers are the probed fact tokens. In the synthetic suite the
/// expected answer at a query step is the token one-hot in the query input
/// itself (a recognition target: did the memory retrieve the probed key?).
pub fn collect_query_samples(
    builder: &EngineBuilder,
    episodes: &[Episode],
) -> (Matrix, Matrix) {
    let all_features = episode_features(builder, episodes);
    let mut feats: Vec<Vec<f32>> = Vec::new();
    let mut targets: Vec<Vec<f32>> = Vec::new();
    for (ep, ep_features) in episodes.iter().zip(&all_features) {
        let (f, y) = episode_query_rows(ep, ep_features);
        feats.extend(f);
        targets.extend(y);
    }
    assert!(!feats.is_empty(), "episodes contained no query steps");
    (
        Matrix::from_rows(&feats),
        Matrix::from_rows(&targets),
    )
}

/// The `(feature, one-hot target)` rows one episode contributes to the
/// readout regression, given its per-step features (`features[step]`) —
/// the per-episode unit of [`collect_query_samples`].
pub(crate) fn episode_query_rows(
    episode: &Episode,
    features: &[Vec<f32>],
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let mut feats: Vec<Vec<f32>> = Vec::with_capacity(episode.query_steps.len());
    let mut targets: Vec<Vec<f32>> = Vec::with_capacity(episode.query_steps.len());
    for (t, f) in features.iter().enumerate() {
        if episode.query_steps.contains(&t) {
            let mut y = vec![0.0f32; VOCAB];
            y[query_token(&episode.inputs[t])] = 1.0;
            feats.push(f.clone());
            targets.push(y);
        }
    }
    (feats, targets)
}

/// The `(correct, total)` query counts a trained readout scores on one
/// episode, given its per-step features — the per-episode unit of
/// [`readout_accuracy`].
pub(crate) fn episode_readout_counts(
    readout: &TrainedReadout,
    episode: &Episode,
    features: &[Vec<f32>],
) -> (usize, usize) {
    let mut correct = 0usize;
    let mut total = 0usize;
    for &t in &episode.query_steps {
        total += 1;
        if readout.predict_class(&features[t]) == query_token(&episode.inputs[t]) {
            correct += 1;
        }
    }
    (correct, total)
}

/// The token probed by a query-step input (argmax of the one-hot block).
pub(crate) fn query_token(input: &[f32]) -> usize {
    input
        .iter()
        .take(VOCAB)
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Accuracy of a trained readout on held-out episodes.
pub fn readout_accuracy(
    builder: &EngineBuilder,
    readout: &TrainedReadout,
    episodes: &[Episode],
) -> f64 {
    let all_features = episode_features(builder, episodes);
    let mut correct = 0usize;
    let mut total = 0usize;
    for (ep, ep_features) in episodes.iter().zip(&all_features) {
        let (c, n) = episode_readout_counts(readout, ep, ep_features);
        correct += c;
        total += n;
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

/// Per-task trained accuracy of DNC vs DNC-D.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskAccuracy {
    /// Task id (1-20).
    pub task_id: usize,
    /// Task name.
    pub name: &'static str,
    /// Centralized DNC accuracy in `[0,1]`.
    pub dnc: f64,
    /// DNC-D accuracy in `[0,1]`.
    pub dncd: f64,
}

/// Trains per-task readouts for the monolithic DNC and a `tiles`-shard
/// DNC-D (shared weights) and evaluates both on held-out episodes.
pub fn trained_accuracy(
    params: DncParams,
    tiles: usize,
    seed: u64,
    train_episodes: usize,
    eval_episodes: usize,
    lambda: f32,
) -> Vec<TaskAccuracy> {
    let dnc = EngineBuilder::new(params).seed(seed);
    let dncd = EngineBuilder::new(params).sharded(tiles).seed(seed);
    TASKS
        .iter()
        .map(|task| trained_task_accuracy(task, &dnc, &dncd, seed, train_episodes, eval_episodes, lambda))
        .collect()
}

fn trained_task_accuracy(
    task: &TaskSpec,
    dnc: &EngineBuilder,
    dncd: &EngineBuilder,
    seed: u64,
    train_episodes: usize,
    eval_episodes: usize,
    lambda: f32,
) -> TaskAccuracy {
    let train = task.generate(train_episodes, seed ^ 0x7EA1).episodes;
    let eval = task.generate(eval_episodes, seed ^ 0x0E7A).episodes;

    let (xf, yf) = collect_query_samples(dnc, &train);
    let dnc_readout = TrainedReadout::fit(&xf, &yf, lambda);
    let dnc_acc = readout_accuracy(dnc, &dnc_readout, &eval);

    let (xd, yd) = collect_query_samples(dncd, &train);
    let dncd_readout = TrainedReadout::fit(&xd, &yd, lambda);
    let dncd_acc = readout_accuracy(dncd, &dncd_readout, &eval);

    TaskAccuracy { task_id: task.id, name: task.name, dnc: dnc_acc, dncd: dncd_acc }
}

/// Mean accuracies `(dnc, dncd)` across tasks.
pub fn mean_accuracy(rows: &[TaskAccuracy]) -> (f64, f64) {
    if rows.is_empty() {
        return (0.0, 0.0);
    }
    let n = rows.len() as f64;
    (
        rows.iter().map(|r| r.dnc).sum::<f64>() / n,
        rows.iter().map(|r| r.dncd).sum::<f64>() / n,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::TOKEN_WIDTH;

    fn params() -> DncParams {
        DncParams::new(64, 16, 2).with_hidden(32).with_io(TOKEN_WIDTH, TOKEN_WIDTH)
    }

    #[test]
    fn readout_fits_and_predicts() {
        // Learn the identity on a toy feature set.
        let x = Matrix::from_fn(30, 4, |i, j| if i % 4 == j { 1.0 } else { 0.0 });
        let y = x.clone();
        let r = TrainedReadout::fit(&x, &y, 1e-4);
        for c in 0..4 {
            let mut f = vec![0.0; 4];
            f[c] = 1.0;
            assert_eq!(r.predict_class(&f), c);
        }
    }

    #[test]
    fn collect_samples_shapes() {
        let task = &TASKS[0];
        let episodes = task.generate(3, 5).episodes;
        let builder = EngineBuilder::new(params()).seed(9);
        let (x, y) = collect_query_samples(&builder, &episodes);
        assert_eq!(x.rows(), 3 * task.queries);
        assert_eq!(y.rows(), x.rows());
        assert_eq!(y.cols(), VOCAB);
        assert_eq!(x.cols(), 2 * 16, "read-vector features only");
    }

    #[test]
    fn batched_features_match_sequential_featuremodel_path() {
        // The batched fast path of `episode_features` must agree with the
        // single-lane sequential loop for any engine spec.
        let task = &TASKS[2];
        let episodes = task.generate(3, 7).episodes;
        for builder in [
            EngineBuilder::new(params()).seed(5),
            EngineBuilder::new(params()).sharded(4).seed(5),
        ] {
            let batched = episode_features(&builder, &episodes);
            let mut single = builder.clone().lanes(1).build();
            let sequential = sequential_episode_features(&mut single, &episodes);
            assert_eq!(batched, sequential);
        }
    }

    #[test]
    fn ragged_features_match_sequential_featuremodel_path() {
        // Ragged lists no longer fall back to a single lane — they pad
        // to the longest episode and mask the tail, still bit-identical
        // to the one-episode-at-a-time reference.
        let task = TASKS[2].with_jitter(5);
        let episodes = task.generate(5, 13).episodes;
        assert!(crate::episode::uniform_len(&episodes).is_none(), "workload must be ragged");
        for builder in [
            EngineBuilder::new(params()).seed(5),
            EngineBuilder::new(params()).sharded(4).seed(5),
        ] {
            let batched = episode_features(&builder, &episodes);
            for (b, e) in episodes.iter().enumerate() {
                assert_eq!(batched[b].len(), e.len(), "one feature row per real step");
            }
            let mut single = builder.clone().lanes(1).build();
            let sequential = sequential_episode_features(&mut single, &episodes);
            assert_eq!(batched, sequential);
        }
    }

    #[test]
    fn ragged_query_samples_and_readout_accuracy_match_sequential() {
        // The full train harness path over a ragged workload: samples
        // collected through the masked batched grid equal samples built
        // from the sequential per-episode features.
        let task = TASKS[0].with_jitter(4);
        let train = task.generate(8, 3).episodes;
        let eval = task.generate(4, 4).episodes;
        let builder = EngineBuilder::new(params()).seed(17);
        let (x, y) = collect_query_samples(&builder, &train);
        let mut single = builder.clone().lanes(1).build();
        let seq_features = sequential_episode_features(&mut single, &train);
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for (e, f) in train.iter().zip(&seq_features) {
            let (fr, yr) = episode_query_rows(e, f);
            xs.extend(fr);
            ys.extend(yr);
        }
        assert_eq!(x, Matrix::from_rows(&xs));
        assert_eq!(y, Matrix::from_rows(&ys));

        let readout = TrainedReadout::fit(&x, &y, 1e-2);
        let batched_acc = readout_accuracy(&builder, &readout, &eval);
        let mut single = builder.clone().lanes(1).build();
        let eval_features = sequential_episode_features(&mut single, &eval);
        let (mut correct, mut total) = (0usize, 0usize);
        for (e, f) in eval.iter().zip(&eval_features) {
            let (c, n) = episode_readout_counts(&readout, e, f);
            correct += c;
            total += n;
        }
        assert_eq!(batched_acc, correct as f64 / total as f64);
    }

    #[test]
    fn trained_readout_beats_chance_on_recall() {
        // Task 1 (single supporting fact, recall style): a trained readout
        // over the reservoir features must beat the 1/12 chance rate. A
        // single episode draw is noisy (untrained reservoir keys retrieve
        // weakly), so the property is pinned on the mean over three
        // generation seeds: held-out accuracy clearly above chance and
        // in-sample accuracy well above it.
        let task = &TASKS[0];
        let chance = 1.0 / VOCAB as f64;
        let mut held_out = 0.0;
        let mut in_sample = 0.0;
        for seed in [11u64, 21, 31] {
            let train = task.generate(60, seed).episodes;
            let eval = task.generate(20, seed ^ 1).episodes;
            let dnc = EngineBuilder::new(params()).seed(21);
            let (x, y) = collect_query_samples(&dnc, &train);
            let readout = TrainedReadout::fit(&x, &y, 1e-2);
            held_out += readout_accuracy(&dnc, &readout, &eval) / 3.0;
            in_sample += readout_accuracy(&dnc, &readout, &train) / 3.0;
        }
        assert!(held_out > 1.5 * chance, "held-out {held_out:.3} vs chance {chance:.3}");
        assert!(in_sample > 2.0 * chance, "in-sample {in_sample:.3} vs chance {chance:.3}");
    }

    #[test]
    fn trained_accuracy_exceeds_chance_for_both_models() {
        // With untrained (reservoir) keys, retrieval accuracy is weak and
        // the DNC-vs-DNC-D ordering is seed noise, so this pins only the
        // sanity properties: full task coverage, valid probabilities, and
        // both models extracting at least chance-level signal from their
        // read vectors. The Fig. 10 ordering claim is carried by the
        // relative-divergence metric in `eval` (which compares the two
        // models on identical inputs rather than separately trained
        // readouts).
        let rows = trained_accuracy(params(), 8, 31, 12, 6, 1e-2);
        assert_eq!(rows.len(), 20);
        let (dnc, dncd) = mean_accuracy(&rows);
        let chance = 1.0 / VOCAB as f64;
        assert!(dnc >= chance * 0.8, "DNC below chance: {dnc:.3}");
        assert!(dncd >= chance * 0.8, "DNC-D below chance: {dncd:.3}");
        assert!(dnc <= 1.0 && dncd <= 1.0);
    }

    #[test]
    fn accuracies_are_probabilities() {
        let rows = trained_accuracy(params(), 4, 3, 6, 3, 1e-2);
        for r in rows {
            assert!((0.0..=1.0).contains(&r.dnc), "{r:?}");
            assert!((0.0..=1.0).contains(&r.dncd), "{r:?}");
        }
    }

    #[test]
    fn mean_accuracy_empty_is_zero() {
        assert_eq!(mean_accuracy(&[]), (0.0, 0.0));
    }
}
