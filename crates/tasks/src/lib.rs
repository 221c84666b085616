//! Synthetic bAbI-style task suite and the DNC-vs-DNC-D accuracy harness.
//!
//! The paper evaluates DNC-D's accuracy degradation on the 20 bAbI QA
//! tasks (Fig. 10). The dataset and the authors' trained weights are not
//! available, so this crate substitutes a *synthetic episodic suite*: 20
//! parameterized QA-style tasks ([`tasks::TASKS`]) whose episodes exercise
//! the same memory-access patterns (store facts, recall by key, chain
//! supporting facts, count, order, path-find). DESIGN.md documents why the
//! substitution preserves the measured quantity: Fig. 10 reports the error
//! of DNC-D *relative to DNC* with shared weights and inputs, which is a
//! property of the distributed approximation, not of the trained weights.
//!
//! [`eval`] runs the engine under test and the reference on the same
//! episodes and reports the relative error (fraction of query steps where
//! the engine's retrieved content diverges from the reference's), after
//! fitting the DNC-D read-merge weights `α` on a calibration split — the
//! inference-time analogue of the paper's trainable merge.
//!
//! Both harnesses drive models exclusively through the
//! [`hima_dnc::GridEngine`] API: an [`eval::EvalConfig`] names the
//! variant under test with a full [`hima_dnc::EngineSpec`] (topology ×
//! datapath × approximations), and [`train`] takes an
//! [`hima_dnc::EngineBuilder`], so every sweep — shards, lanes,
//! fixed-point — runs through one code path.

pub mod babi_format;
pub mod episode;
pub mod eval;
pub mod strategies;
pub mod tasks;
pub mod train;

pub use babi_format::{encode_story, parse_stories, EncodedStory, Story, Vocabulary};
pub use episode::{
    masked_step_block, step_block, try_masked_step_block, try_step_block, Episode,
    EpisodeBatch, StepBlockError,
};
pub use eval::{relative_error, EvalConfig, TaskError};
pub use tasks::{TaskSpec, TASKS};
pub use train::{
    collect_query_samples, episode_features, readout_accuracy, sequential_episode_features,
    trained_accuracy, TaskAccuracy, TrainedReadout,
};
