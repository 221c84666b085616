//! Cross-crate **ragged conformance suite**: masked-batched execution of
//! unequal-length episodes must be **bit-identical** to stepping each
//! episode alone, everywhere ragged traffic now flows.
//!
//! This is the workspace-level contract behind the ragged-batching
//! subsystem (the masked counterpart of the uniform trait-level suite in
//! `crates/dnc/tests/conformance.rs`):
//!
//! * **engine grid** — a `lanes(B)` engine stepping a padded ragged
//!   batch under per-step [`LaneMask`]s reproduces `B` independent
//!   `lanes(1)` engines bit for bit, across topology (monolithic |
//!   sharded) × datapath (f32 | Q16.16) × skim × B ∈ {1, 3, 8}, on
//!   proptest-generated ragged episode sets,
//! * **harness routing** — `episode_features` / `collect_query_samples`
//!   / `readout_accuracy` drive ragged lists through the masked batched
//!   grid (no single-lane fallback) and equal the sequential
//!   reference,
//! * **determinism** — masked lane/shard fan-out never perturbs results
//!   across rayon thread counts.
//!
//! Inputs come from the shared strategy module
//! (`hima_tasks::strategies`), so this suite and the dnc suite sample the
//! same ragged distribution.

use hima::dnc::allocation::SkimRate;
use hima::dnc::{Datapath, DncParams, EngineBuilder, EngineSpec};
use hima::tasks::episode::{masked_step_block, max_len, uniform_len};
use hima::tasks::strategies::ragged_episodes;
use hima::tasks::tasks::TOKEN_WIDTH;
use hima::tasks::train::{episode_features, sequential_episode_features};
use hima::tasks::Episode;
use hima::tensor::{LaneMask, Matrix, QFormat};
use proptest::prelude::*;

const BATCHES: [usize; 3] = [1, 3, 8];
const SEED: u64 = 41;

fn params() -> DncParams {
    DncParams::new(16, 4, 2).with_hidden(16).with_io(TOKEN_WIDTH, TOKEN_WIDTH)
}

fn builder(spec: EngineSpec) -> EngineBuilder {
    EngineBuilder::new(params()).with_spec(spec).seed(SEED)
}

/// Topology × datapath × skim grid under test.
fn specs() -> Vec<EngineSpec> {
    let q = Datapath::Quantized(QFormat::q16_16());
    vec![
        EngineSpec::monolithic(),
        EngineSpec::sharded(2),
        EngineSpec::sharded(4),
        EngineSpec::monolithic().with_datapath(q),
        EngineSpec::sharded(4).with_datapath(q),
        EngineSpec::monolithic().with_skim(SkimRate::new(0.2)),
        EngineSpec::sharded(2).with_skim(SkimRate::new(0.2)).with_datapath(q),
    ]
}

/// The engine-level contract: one masked `B`-lane grid ≡ `B` solo
/// engines, at every step, for outputs, read rows and feature rows.
fn assert_grid_matches_solo(spec: EngineSpec, episodes: &[Episode]) {
    let lanes = episodes.len();
    let steps = max_len(episodes).expect("non-empty set");
    let mut grid = builder(spec).lanes(lanes).build();
    let mut solo: Vec<_> = (0..lanes).map(|_| builder(spec).lanes(1).build()).collect();
    for t in 0..steps {
        let (block, mask) = masked_step_block(episodes, t);
        let y = grid.step_batch_masked(&block, &mask);
        let reads = grid.last_read_rows();
        let features = grid.last_features_rows();
        for (b, lane) in solo.iter_mut().enumerate() {
            if mask.is_active(b) {
                let want = lane.step(&episodes[b].inputs[t]);
                assert_eq!(
                    y.row(b),
                    &want[..],
                    "{} B={lanes} lane {b} t {t}: outputs diverged",
                    spec.label()
                );
            } else {
                assert!(
                    y.row(b).iter().all(|&v| v == 0.0),
                    "{} lane {b} t {t}: ended lane must output zeros",
                    spec.label()
                );
            }
            // Frozen or live, lane state mirrors the solo engine at its
            // last real step.
            assert_eq!(
                reads.row(b),
                lane.last_read_rows().row(0),
                "{} B={lanes} lane {b} t {t}: read rows diverged",
                spec.label()
            );
            assert_eq!(
                features.row(b),
                lane.last_features_rows().row(0),
                "{} B={lanes} lane {b} t {t}: feature rows diverged",
                spec.label()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn masked_grid_is_bit_identical_to_solo_engines_across_the_axis_grid(
        episodes_b3 in ragged_episodes(3..=3, 2..=8),
        episodes_b8 in ragged_episodes(8..=8, 2..=9),
        episodes_b1 in ragged_episodes(1..=1, 2..=8),
    ) {
        for episodes in [&episodes_b1, &episodes_b3, &episodes_b8] {
            prop_assert!(BATCHES.contains(&episodes.len()));
            for spec in specs() {
                assert_grid_matches_solo(spec, episodes);
            }
        }
    }

    #[test]
    fn harness_features_route_ragged_lists_through_the_masked_grid(
        episodes in ragged_episodes(3..=8, 2..=9),
    ) {
        // eval/train share this path (`collect_reads` == episode_features);
        // there is no single-lane fallback left to fall into.
        for spec in [EngineSpec::monolithic(), EngineSpec::sharded(4)] {
            let b = builder(spec);
            let batched = episode_features(&b, &episodes);
            for (lane, e) in episodes.iter().enumerate() {
                prop_assert_eq!(batched[lane].len(), e.len(), "one row per real step");
            }
            let mut single = b.clone().lanes(1).build();
            let sequential = sequential_episode_features(&mut single, &episodes);
            prop_assert_eq!(&batched, &sequential, "{}", spec.label());
        }
    }

    #[test]
    fn masked_grid_is_deterministic_across_thread_counts(
        episodes in ragged_episodes(6..=6, 2..=8),
    ) {
        let run = |threads: usize| -> Vec<Matrix> {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    let steps = max_len(&episodes).unwrap();
                    let mut grid = builder(EngineSpec::sharded(4)).lanes(6).build();
                    (0..steps)
                        .map(|t| {
                            let (block, mask) = masked_step_block(&episodes, t);
                            grid.step_batch_masked(&block, &mask)
                        })
                        .collect()
                })
        };
        prop_assert_eq!(run(1), run(4));
    }
}

#[test]
fn jittered_generation_is_genuinely_ragged() {
    // Sanity anchor for the suite's inputs: jittered tasks really
    // produce unequal lengths.
    let task = hima::tasks::TASKS[0].with_jitter(5);
    let episodes = task.generate(8, 17).episodes;
    assert_eq!(uniform_len(&episodes), None, "jittered batch must be ragged");
}

#[test]
fn uniform_sets_still_take_the_historical_lock_step_path() {
    // A degenerate ragged set (all lengths equal) must behave exactly
    // like the uniform fast path always did: fully-active masks, and
    // step_batch_masked ≡ step_batch.
    let episodes = {
        use proptest::strategy::Strategy as _;
        ragged_episodes(4..=4, 6..=6).generate(&mut proptest::test_runner::rng_for("uniform"))
    };
    assert_eq!(uniform_len(&episodes), Some(6));
    let spec = EngineSpec::sharded(2);
    let mut masked = builder(spec).lanes(4).build();
    let mut plain = builder(spec).lanes(4).build();
    for t in 0..6 {
        let (block, mask) = masked_step_block(&episodes, t);
        assert!(mask.is_full());
        assert_eq!(
            masked.step_batch_masked(&block, &mask),
            plain.step_batch(&block),
            "t {t}"
        );
    }
}

#[test]
fn frozen_lanes_resume_exactly_after_interleaved_masks() {
    // Masks generalize beyond suffix raggedness: freeze a lane mid-run,
    // resume it, and the lane's trajectory equals an uninterrupted solo
    // engine fed the same inputs back to back.
    let width = params().input_size;
    let x = |t: usize| {
        Matrix::from_fn(2, width, |b, i| (((b * 19 + t * 5 + i) as f32) * 0.17).sin())
    };
    let mut grid = builder(EngineSpec::monolithic()).lanes(2).build();
    let mut solo = builder(EngineSpec::monolithic()).lanes(1).build();
    let lane1_schedule = [true, false, false, true, true];
    for (t, &active) in lane1_schedule.iter().enumerate() {
        let mask = LaneMask::from(vec![true, active]);
        let y = grid.step_batch_masked(&x(t), &mask);
        if active {
            let want = solo.step(x(t).row(1));
            assert_eq!(y.row(1), &want[..], "t {t}");
        }
    }
}
