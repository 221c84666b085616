//! The staged pipeline: generation workers → batcher → engine workers →
//! reduction, over bounded channels.
//!
//! See the [crate docs](crate) for the stage diagram and the determinism
//! argument.

use crate::spec::PipelineSpec;
use hima_dnc::{BoxedEngine, EngineBuilder};
use hima_tasks::episode::masked_step_block;
use hima_tensor::Matrix;
use hima_tasks::{Episode, TaskSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;

/// Which steps' read vectors the engine stage materializes for the
/// per-episode map.
///
/// The engine always *steps* every time step (the recurrent state needs
/// them); this only controls which steps' read vectors are copied out
/// into [`EpisodeCtx::features`]. A reduction that consumes only
/// query-step features (all three pipelined harness entry points do)
/// can skip the copy for the store/distractor steps — an optimization
/// the synchronous [`episode_features`](hima_tasks::episode_features)
/// path cannot offer, since its contract returns every step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FeatureSteps {
    /// Materialize every step's read vector (the general contract).
    #[default]
    All,
    /// Materialize read vectors only at the episode's query steps; the
    /// other entries of `features[builder]` are present but empty.
    Queries,
}

/// One unit of pipeline work: `episodes` episodes of `task`, generated
/// from per-episode RNG streams rooted at `seed`
/// ([`TaskSpec::episode_at`]), each stepped through an engine per entry
/// of `builders`.
///
/// A pipeline run processes a slice of jobs concurrently — e.g. the
/// pipelined Fig. 10 harness submits one job per task, each carrying the
/// reference builder and the calibrated engine-under-test builder.
#[derive(Debug, Clone)]
pub struct EpisodeJob {
    /// The episode generator.
    pub task: TaskSpec,
    /// How many episodes to run (indices `0..episodes`).
    pub episodes: usize,
    /// Base seed of the per-episode RNG streams.
    pub seed: u64,
    /// One engine per builder steps every episode of the job; the
    /// per-episode map sees the read-vector features of all of them
    /// (may be empty for generation-only pipelines).
    pub builders: Vec<EngineBuilder>,
    /// Which steps' features to materialize for the map.
    pub feature_steps: FeatureSteps,
}

impl EpisodeJob {
    /// A job materializing every step's features (the general default).
    pub fn new(task: TaskSpec, episodes: usize, seed: u64, builders: Vec<EngineBuilder>) -> Self {
        Self { task, episodes, seed, builders, feature_steps: FeatureSteps::All }
    }

    /// Restricts materialized features to the query steps.
    pub fn queries_only(mut self) -> Self {
        self.feature_steps = FeatureSteps::Queries;
        self
    }
}

/// The per-episode view handed to the reduction map: which episode this
/// is, its inputs, and its read-vector features under every builder.
#[derive(Debug)]
pub struct EpisodeCtx<'a> {
    /// Index of the episode's [`EpisodeJob`] in the submitted slice.
    pub job: usize,
    /// Episode index within the job (`0..job.episodes`).
    pub index: usize,
    /// The generated episode.
    pub episode: &'a Episode,
    /// `features[builder][step]` is the flattened read vector the
    /// engine built from `builders[builder]` produced at `step` — the
    /// same quantity the synchronous
    /// [`episode_features`](hima_tasks::episode_features) collects.
    pub features: &'a [Vec<Vec<f32>>],
}

/// An episode travelling from the generation stage to the batcher.
struct GenItem {
    job: usize,
    index: usize,
    episode: Episode,
}

/// A batch unit travelling from the batcher to the engine stage. All
/// episodes share one job (hence one builder list) and one *length
/// bucket* — lengths within the unit differ by at most the spec's
/// `length_spread` — so the engine steps them as one padded, masked
/// lane grid (a spread of 0 recovers uniform lock-step units).
struct BatchUnit {
    job: usize,
    indices: Vec<usize>,
    episodes: Vec<Episode>,
}

/// Runs the staged pipeline over `jobs` and returns `map`'s per-episode
/// results, grouped by job and ordered by episode index —
/// `result[job][index]` — regardless of which workers produced them.
///
/// Stages (each connected by a bounded channel, so memory stays flat at
/// any episode count):
///
/// 1. **generation** — `spec.gen_workers` threads claim episode indices
///    from a shared counter and synthesize them via
///    [`TaskSpec::episode_at`] (per-episode RNG streams: the episode is
///    bit-identical whoever generates it),
/// 2. **batcher** — groups arriving episodes into per-job **length
///    buckets** of bounded spread (`spec.length_spread`; `0` = exact
///    length) and emits [`EpisodeBatch`](hima_tasks::EpisodeBatch)-sized
///    units of `spec.batch_size` (remainders flush at end of input) —
///    ragged bAbI-style traffic fills lanes instead of fragmenting into
///    per-length puddles,
/// 3. **engine** — `spec.engine_workers` threads step each unit through
///    one engine per job builder (engines are cached per
///    `(job, builder, lanes)` and [`reset`](hima_dnc::GridEngine::reset)
///    between units — no per-batch rebuild) as a padded lane grid with a
///    per-step [`LaneMask`](hima_dnc::LaneMask) (shorter episodes drop
///    out as they end;
///    [`step_batch_masked`](hima_dnc::GridEngine::step_batch_masked)
///    freezes their lanes), collecting per-step read vectors, then apply
///    `map` to every episode,
/// 4. **reduction** — the calling thread collects `(job, index, P)`
///    triples into the index-ordered result.
///
/// Results are **bit-identical across specs**: per-lane state makes an
/// episode's features independent of its batch-mates (the PR 1
/// conformance property), and the index-ordered result lets callers
/// fold partials in a fixed order.
///
/// # Panics
///
/// Panics if the spec fails [`PipelineSpec::validate`], or if a worker
/// panics (e.g. an engine rejects an episode's width).
pub fn run_pipeline<P, F>(spec: &PipelineSpec, jobs: &[EpisodeJob], map: F) -> Vec<Vec<P>>
where
    P: Send,
    F: Fn(EpisodeCtx<'_>) -> P + Sync,
{
    if let Err(e) = spec.validate() {
        panic!("invalid pipeline spec: {e}");
    }
    let requests: Vec<(usize, usize)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(job, j)| (0..j.episodes).map(move |index| (job, index)))
        .collect();
    let mut slots: Vec<Vec<Option<P>>> =
        jobs.iter().map(|j| (0..j.episodes).map(|_| None).collect()).collect();

    if !requests.is_empty() {
        let next = AtomicUsize::new(0);
        let (gen_tx, gen_rx) = sync_channel::<GenItem>(spec.episode_channel_bound());
        let (unit_tx, unit_rx) = sync_channel::<BatchUnit>(spec.channel_depth);
        let (result_tx, result_rx) = sync_channel::<(usize, usize, P)>(spec.episode_channel_bound());
        let unit_rx = Arc::new(Mutex::new(unit_rx));

        thread::scope(|s| {
            for _ in 0..spec.gen_workers {
                let gen_tx = gen_tx.clone();
                let (next, requests) = (&next, &requests);
                s.spawn(move || generation_worker(jobs, requests, next, &gen_tx));
            }
            drop(gen_tx);

            {
                let unit_tx = unit_tx.clone();
                s.spawn(move || batcher(gen_rx, spec, &unit_tx));
            }
            drop(unit_tx);

            for _ in 0..spec.engine_workers {
                let unit_rx = Arc::clone(&unit_rx);
                let result_tx = result_tx.clone();
                let (map, engine_threads) = (&map, spec.engine_threads);
                s.spawn(move || engine_worker(jobs, &unit_rx, engine_threads, map, &result_tx));
            }
            drop(result_tx);

            // Reduction: place results by index; any arrival order yields
            // the same output.
            for (job, index, value) in result_rx {
                slots[job][index] = Some(value);
            }
        });
    }

    slots
        .into_iter()
        .map(|job| {
            job.into_iter()
                .map(|p| p.expect("pipeline delivered every requested episode"))
                .collect()
        })
        .collect()
}

/// Generation stage: claims request indices from the shared counter and
/// synthesizes each episode from its own RNG stream.
fn generation_worker(
    jobs: &[EpisodeJob],
    requests: &[(usize, usize)],
    next: &AtomicUsize,
    gen_tx: &SyncSender<GenItem>,
) {
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&(job, index)) = requests.get(i) else { break };
        let episode = jobs[job].task.episode_at(jobs[job].seed, index);
        if gen_tx.send(GenItem { job, index, episode }).is_err() {
            break; // downstream gone (a worker panicked); unwind quietly
        }
    }
}

/// Batcher stage: groups episodes by `(job, length bucket)` — buckets
/// bound the length spread within a unit to `spec.length_spread`, which
/// the engine stage's padded masked stepping absorbs — and emits
/// `batch_size`-episode units, flushing remainders when generation ends.
fn batcher(gen_rx: Receiver<GenItem>, spec: &PipelineSpec, unit_tx: &SyncSender<BatchUnit>) {
    let mut groups: HashMap<(usize, usize), (Vec<usize>, Vec<Episode>)> = HashMap::new();
    for item in gen_rx {
        let key = (item.job, spec.length_bucket(item.episode.len()));
        let (indices, episodes) = groups.entry(key).or_default();
        indices.push(item.index);
        episodes.push(item.episode);
        if indices.len() == spec.batch_size {
            let (indices, episodes) = groups.remove(&key).expect("group just filled");
            if unit_tx.send(BatchUnit { job: key.0, indices, episodes }).is_err() {
                return;
            }
        }
    }
    let mut rest: Vec<_> = groups.into_iter().collect();
    rest.sort_by_key(|(key, _)| *key);
    for ((job, _bucket), (indices, episodes)) in rest {
        if unit_tx.send(BatchUnit { job, indices, episodes }).is_err() {
            return;
        }
    }
}

/// Engine stage: steps each unit through one cached engine per job
/// builder and maps every episode to its partial result.
fn engine_worker<P, F>(
    jobs: &[EpisodeJob],
    unit_rx: &Mutex<Receiver<BatchUnit>>,
    engine_threads: usize,
    map: &F,
    result_tx: &SyncSender<(usize, usize, P)>,
) where
    P: Send,
    F: Fn(EpisodeCtx<'_>) -> P + Sync,
{
    // Scope the worker's intra-step parallelism: lane × shard fan-out
    // inside `step_batch` uses `engine_threads` rayon workers, so batch-
    // level parallelism across engine workers composes predictably.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(engine_threads)
        .build()
        .expect("rayon pool");
    pool.install(|| {
        let mut engines: HashMap<(usize, usize, usize), BoxedEngine> = HashMap::new();
        loop {
            let unit = { unit_rx.lock().expect("unit channel lock").recv() };
            let Ok(unit) = unit else { break };
            if process_unit(jobs, &mut engines, &unit, map, result_tx).is_err() {
                break; // reduction gone; unwind quietly
            }
        }
    });
}

/// Steps one (possibly ragged) unit through every builder's engine as a
/// padded, masked lane grid and emits the mapped per-episode results.
fn process_unit<P, F>(
    jobs: &[EpisodeJob],
    engines: &mut HashMap<(usize, usize, usize), BoxedEngine>,
    unit: &BatchUnit,
    map: &F,
    result_tx: &SyncSender<(usize, usize, P)>,
) -> Result<(), SendError<(usize, usize, P)>>
where
    F: Fn(EpisodeCtx<'_>) -> P + Sync,
{
    let job = &jobs[unit.job];
    let lanes = unit.episodes.len();
    // The grid runs to the unit's longest episode; shorter lanes drop
    // out of the mask as their episodes end (state frozen, rows skipped).
    let steps = unit.episodes.iter().map(Episode::len).max().expect("non-empty unit");
    // features[lane][builder][step] — each lane collects exactly its own
    // episode's step count, ragged or not.
    let mut per_lane: Vec<Vec<Vec<Vec<f32>>>> =
        (0..lanes).map(|_| Vec::with_capacity(job.builders.len())).collect();
    for (builder_idx, builder) in job.builders.iter().enumerate() {
        let engine = engines
            .entry((unit.job, builder_idx, lanes))
            .or_insert_with(|| builder.clone().lanes(lanes).build());
        engine.reset();
        let mut by_lane: Vec<Vec<Vec<f32>>> =
            unit.episodes.iter().map(|e| Vec::with_capacity(e.len())).collect();
        // Engines are cached across units and own their step workspace;
        // reusing the output block keeps the stepping loop allocation-free
        // apart from the collected feature rows.
        let mut y = Matrix::zeros(lanes, job.builders[builder_idx].params().output_size);
        for t in 0..steps {
            let (block, mask) = masked_step_block(&unit.episodes, t);
            engine.step_batch_masked_into(&block, &mask, &mut y);
            for lane in mask.active_lanes() {
                let wanted = match job.feature_steps {
                    FeatureSteps::All => true,
                    FeatureSteps::Queries => unit.episodes[lane].query_steps.contains(&t),
                };
                by_lane[lane]
                    .push(if wanted { engine.last_read_row(lane).to_vec() } else { Vec::new() });
            }
        }
        for (lane, lane_features) in by_lane.into_iter().enumerate() {
            per_lane[lane].push(lane_features);
        }
    }
    for (lane, features) in per_lane.into_iter().enumerate() {
        let value = map(EpisodeCtx {
            job: unit.job,
            index: unit.indices[lane],
            episode: &unit.episodes[lane],
            features: &features,
        });
        result_tx.send((unit.job, unit.indices[lane], value))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hima_dnc::DncParams;
    use hima_tasks::tasks::{TASKS, TOKEN_WIDTH};

    fn builder() -> EngineBuilder {
        let params =
            DncParams::new(16, 4, 1).with_hidden(16).with_io(TOKEN_WIDTH, TOKEN_WIDTH);
        EngineBuilder::new(params).seed(5)
    }

    #[test]
    fn empty_job_list_yields_empty_results() {
        let out: Vec<Vec<usize>> = run_pipeline(&PipelineSpec::serial(), &[], |_| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_episode_jobs_yield_empty_slots() {
        let jobs = [EpisodeJob::new(TASKS[0], 0, 1, vec![])];
        let out: Vec<Vec<usize>> = run_pipeline(&PipelineSpec::serial(), &jobs, |_| 0);
        assert_eq!(out, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn generation_only_pipeline_sees_no_features() {
        // No builders: the engine stage degenerates to a pass-through and
        // the map sees the generated episodes alone.
        let jobs = [EpisodeJob::new(TASKS[0], 5, 9, vec![])];
        let out = run_pipeline(&PipelineSpec::default().with_batch_size(2), &jobs, |ctx| {
            assert!(ctx.features.is_empty());
            (ctx.index, ctx.episode.len())
        });
        let want: Vec<(usize, usize)> =
            (0..5).map(|i| (i, TASKS[0].episode_len())).collect();
        assert_eq!(out[0], want);
    }

    #[test]
    fn results_are_index_ordered_for_any_batch_size() {
        let jobs = [EpisodeJob::new(TASKS[1], 7, 3, vec![builder()])];
        for batch_size in [1, 2, 3, 7, 16] {
            let spec = PipelineSpec::default().with_batch_size(batch_size);
            let out = run_pipeline(&spec, &jobs, |ctx| {
                assert_eq!(ctx.features.len(), 1, "one builder");
                assert_eq!(ctx.features[0].len(), ctx.episode.len(), "one read per step");
                ctx.index
            });
            assert_eq!(out[0], (0..7).collect::<Vec<_>>(), "batch_size {batch_size}");
        }
    }

    #[test]
    fn queries_only_materializes_query_steps_alone() {
        let jobs_all = [EpisodeJob::new(TASKS[0], 3, 9, vec![builder()])];
        let jobs_q = [jobs_all[0].clone().queries_only()];
        let spec = PipelineSpec::default().with_batch_size(2);
        let all = run_pipeline(&spec, &jobs_all, |ctx| ctx.features[0].clone());
        let only = run_pipeline(&spec, &jobs_q, |ctx| ctx.features[0].clone());
        let episodes = TASKS[0].generate(3, 9).episodes;
        for (i, episode) in episodes.iter().enumerate() {
            assert_eq!(all[0][i].len(), only[0][i].len(), "same step count");
            for t in 0..episode.len() {
                if episode.query_steps.contains(&t) {
                    assert_eq!(all[0][i][t], only[0][i][t], "query step {t} identical");
                } else {
                    assert!(only[0][i][t].is_empty(), "non-query step {t} skipped");
                    assert!(!all[0][i][t].is_empty(), "All materializes step {t}");
                }
            }
        }
    }

    #[test]
    fn ragged_jobs_batch_into_buckets_and_keep_per_episode_feature_counts() {
        // A jittered task produces ragged episodes; with a nonzero
        // spread they share units, padded and masked — every episode
        // still sees exactly its own step count of features.
        let task = TASKS[0].with_jitter(5);
        let jobs = [EpisodeJob::new(task, 9, 3, vec![builder()])];
        let want: Vec<usize> =
            (0..9).map(|i| task.episode_at(3, i).len()).collect();
        for spread in [0usize, 2, 8] {
            let spec =
                PipelineSpec::default().with_batch_size(4).with_length_spread(spread);
            let out = run_pipeline(&spec, &jobs, |ctx| {
                assert_eq!(ctx.features[0].len(), ctx.episode.len(), "one read per real step");
                ctx.episode.len()
            });
            assert_eq!(out[0], want, "spread {spread}");
        }
    }

    #[test]
    fn length_spread_does_not_change_results() {
        // The spread knob trades occupancy only: any value yields
        // bit-identical features (masked stepping freezes tail lanes).
        let task = TASKS[4].with_jitter(4);
        let jobs = [EpisodeJob::new(task, 7, 11, vec![builder()])];
        let run = |spread: usize| {
            let spec =
                PipelineSpec::default().with_batch_size(3).with_length_spread(spread);
            run_pipeline(&spec, &jobs, |ctx| ctx.features[0].clone())
        };
        let exact = run(0);
        for spread in [1usize, 3, 16] {
            assert_eq!(exact, run(spread), "spread {spread}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid pipeline spec")]
    fn invalid_spec_is_rejected() {
        let jobs = [EpisodeJob::new(TASKS[0], 1, 1, vec![])];
        let _: Vec<Vec<usize>> =
            run_pipeline(&PipelineSpec::serial().with_batch_size(0), &jobs, |_| 0);
    }
}
