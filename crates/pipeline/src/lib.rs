//! Async producer/consumer episode pipeline for the HiMA harnesses.
//!
//! HiMA's throughput story is about keeping the memory-access engine
//! saturated. After the batched execution path (PR 1) and the unified
//! engine API (PR 2, today's [`GridEngine`](hima_dnc::GridEngine)), the
//! engine's step rate far exceeds what the strictly sequential harnesses feed it:
//! they generate episodes, step the model, and reduce metrics one phase
//! after another. This crate overlaps those phases in a staged
//! producer/consumer pipeline:
//!
//! ```text
//!  generation (G threads)      batcher (1)           engine (E threads)       reduction
//!  ┌───────────────────┐   ┌────────────────┐   ┌─────────────────────┐   ┌─────────────┐
//!  │ TaskSpec::episode_at │→│ group by (job, │→│ EngineBuilder-built │→│ fold per-    │
//!  │ per-episode RNG    │   │ length bucket) │   │ engines, cached &   │   │ episode      │
//!  │ streams            │   │ into batch_size│   │ reset; pad + mask:  │   │ partials in  │
//!  │ (ragged lengths    │   │ units, spread ≤ │   │ step_batch_masked,  │   │ episode-index│
//!  │  welcome)          │   │ length_spread  │   │ collect read vecs   │   │ order        │
//!  └───────────────────┘   └────────────────┘   └─────────────────────┘   └─────────────┘
//!        └──────── bounded channels: backpressure keeps memory flat ────────┘
//! ```
//!
//! The shape of the pipeline — worker counts, batch size, channel depths
//! — is a serializable [`PipelineSpec`]; **no spec field changes
//! results**. Three properties make the pipeline bit-identical to the
//! synchronous harnesses at any parallelism:
//!
//! 1. **per-episode RNG streams** — episode `i` is the same bits no
//!    matter which generation worker produces it
//!    ([`TaskSpec::episode_at`](hima_tasks::TaskSpec::episode_at)),
//! 2. **per-lane independence** — an episode's read vectors don't depend
//!    on its batch-mates (the batched-equals-sequential conformance
//!    property of every engine), so any grouping the batcher picks is
//!    equivalent,
//! 3. **index-ordered reduction** — per-episode partials fold in episode
//!    order, fixing the floating-point summation order.
//!
//! [`run_pipeline`] is the general engine; [`harness`] wraps it in
//! pipelined counterparts of the `hima-tasks` entry points
//! ([`relative_error_pipelined`], [`collect_query_samples_pipelined`],
//! [`readout_accuracy_pipelined`]).
//!
//! # Quickstart
//!
//! ```
//! use hima_dnc::{DncParams, EngineBuilder};
//! use hima_pipeline::{run_pipeline, EpisodeJob, PipelineSpec};
//! use hima_tasks::tasks::{TASKS, TOKEN_WIDTH};
//!
//! let params = DncParams::new(32, 8, 1).with_hidden(16).with_io(TOKEN_WIDTH, TOKEN_WIDTH);
//! let job = EpisodeJob::new(TASKS[0], 6, 7, vec![EngineBuilder::new(params).seed(7)]);
//! // Count query steps per episode, overlapping generation and stepping.
//! let spec = PipelineSpec::default().with_batch_size(2);
//! let queries = run_pipeline(&spec, &[job], |ctx| ctx.episode.query_steps.len());
//! assert_eq!(queries[0].len(), 6);
//! ```

pub mod harness;
pub mod spec;
pub mod stages;

pub use harness::{
    collect_query_samples_pipelined, readout_accuracy_pipelined, relative_error_pipelined,
};
pub use spec::PipelineSpec;
pub use stages::{run_pipeline, EpisodeCtx, EpisodeJob, FeatureSteps};
