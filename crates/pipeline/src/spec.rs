//! [`PipelineSpec`]: the serializable shape of an episode pipeline.

use serde::{Deserialize, Serialize};

/// The configurable shape of an episode pipeline: worker counts per
/// stage, batch size, and channel depths.
///
/// The spec is serializable, so a harness configuration (or a CLI sweep)
/// can name a pipeline shape the same way an
/// [`EngineSpec`](hima_dnc::EngineSpec) names an engine variant. **No
/// field changes results** — the pipeline is bit-deterministic across
/// every valid spec (conformance-tested); the spec only trades memory
/// against overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineSpec {
    /// Episode-generation worker threads. Each worker claims episode
    /// indices from a shared counter and synthesizes them from their
    /// per-episode RNG streams, so the count affects only overlap.
    pub gen_workers: usize,
    /// Engine worker threads. Each owns its engines (built once per
    /// `(job, builder, lanes)` and reset between batches) and steps one
    /// [`EpisodeBatch`](hima_tasks::EpisodeBatch)-sized unit at a time.
    pub engine_workers: usize,
    /// Rayon threads installed *inside* each engine worker for the
    /// lane × shard grid of a single `step_batch`. The default of 1
    /// favours batch-level parallelism across workers over per-step
    /// fork/join.
    pub engine_threads: usize,
    /// Episodes per batch unit. The batcher groups episodes into
    /// per-job **length buckets** (see
    /// [`length_spread`](PipelineSpec::length_spread)) and emits a unit
    /// whenever a bucket reaches this size (remainders flush when
    /// generation finishes).
    pub batch_size: usize,
    /// Maximum episode-length difference within one batch unit. `0`
    /// groups by exact length (every unit is uniform — the historical
    /// behaviour); a positive spread buckets lengths into
    /// `spread + 1`-wide bands, so ragged episodes share a unit: the
    /// engine stage pads them to the unit's longest episode and masks
    /// the tail lanes as their episodes end. Like every other field
    /// this trades overlap/occupancy only — masked stepping keeps the
    /// results bit-identical at any spread.
    pub length_spread: usize,
    /// Bound of the inter-stage channels, in batch units (the episode
    /// and result channels are bounded at `channel_depth × batch_size`
    /// items). `0` is a rendezvous channel: every hand-off blocks until
    /// the consumer arrives. Together with the bounded unit channel this
    /// is the backpressure that keeps pipeline memory flat at any
    /// episode count.
    pub channel_depth: usize,
}

impl Default for PipelineSpec {
    /// One generation worker per two engine workers is enough to keep
    /// generation ahead of stepping; engine workers default to the
    /// machine's parallelism with single-threaded stepping inside each.
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        Self {
            gen_workers: (threads / 2).max(1),
            engine_workers: threads,
            engine_threads: 1,
            batch_size: 8,
            length_spread: 0,
            channel_depth: 4,
        }
    }
}

impl PipelineSpec {
    /// A fully serial pipeline: one worker per stage, single-episode
    /// batches, rendezvous channels. Useful as the conformance baseline.
    pub fn serial() -> Self {
        Self {
            gen_workers: 1,
            engine_workers: 1,
            engine_threads: 1,
            batch_size: 1,
            length_spread: 0,
            channel_depth: 0,
        }
    }

    /// Overrides the batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Overrides the stage worker counts.
    pub fn with_workers(mut self, gen_workers: usize, engine_workers: usize) -> Self {
        self.gen_workers = gen_workers;
        self.engine_workers = engine_workers;
        self
    }

    /// Overrides the length spread of the batcher's buckets (`0` =
    /// exact-length grouping).
    pub fn with_length_spread(mut self, length_spread: usize) -> Self {
        self.length_spread = length_spread;
        self
    }

    /// The bucket id of an episode of `len` steps: lengths within one
    /// bucket differ by at most [`length_spread`](PipelineSpec::length_spread).
    pub(crate) fn length_bucket(&self, len: usize) -> usize {
        len / (self.length_spread + 1)
    }

    /// Bound of the per-episode channels (generation → batcher and
    /// engine → reduction), in episodes.
    pub(crate) fn episode_channel_bound(&self) -> usize {
        self.channel_depth * self.batch_size
    }

    /// Checks the spec is runnable.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field if any worker count,
    /// the per-worker thread count, or the batch size is zero
    /// (`channel_depth` 0 is valid — rendezvous channels).
    pub fn validate(&self) -> Result<(), String> {
        for (field, value) in [
            ("gen_workers", self.gen_workers),
            ("engine_workers", self.engine_workers),
            ("engine_threads", self.engine_threads),
            ("batch_size", self.batch_size),
        ] {
            if value == 0 {
                return Err(format!("PipelineSpec::{field} must be at least 1"));
            }
        }
        Ok(())
    }

    /// Human-readable label, e.g. `"gen2·eng4×1·B8·spread0·depth4"`.
    pub fn label(&self) -> String {
        format!(
            "gen{}·eng{}×{}·B{}·spread{}·depth{}",
            self.gen_workers,
            self.engine_workers,
            self.engine_threads,
            self.batch_size,
            self.length_spread,
            self.channel_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_valid() {
        let spec = PipelineSpec::default();
        assert!(spec.validate().is_ok());
        assert!(spec.gen_workers >= 1);
        assert!(spec.engine_workers >= 1);
    }

    #[test]
    fn serial_spec_is_valid_and_rendezvous() {
        let spec = PipelineSpec::serial();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.episode_channel_bound(), 0);
        assert_eq!(spec.label(), "gen1·eng1×1·B1·spread0·depth0");
    }

    #[test]
    fn zero_fields_are_rejected_by_name() {
        let bad = PipelineSpec::serial().with_batch_size(0);
        assert!(bad.validate().unwrap_err().contains("batch_size"));
        let bad = PipelineSpec::serial().with_workers(0, 1);
        assert!(bad.validate().unwrap_err().contains("gen_workers"));
        let bad = PipelineSpec::serial().with_workers(1, 0);
        assert!(bad.validate().unwrap_err().contains("engine_workers"));
    }

    #[test]
    fn builder_style_overrides_compose() {
        let spec = PipelineSpec { channel_depth: 2, ..PipelineSpec::default() }
            .with_batch_size(16)
            .with_workers(3, 5)
            .with_length_spread(4);
        assert_eq!(spec.batch_size, 16);
        assert_eq!(spec.gen_workers, 3);
        assert_eq!(spec.engine_workers, 5);
        assert_eq!(spec.episode_channel_bound(), 32);
        assert_eq!(spec.length_spread, 4);
    }

    #[test]
    fn length_buckets_bound_the_spread() {
        // spread 0: every distinct length is its own bucket.
        let exact = PipelineSpec::serial();
        assert_ne!(exact.length_bucket(7), exact.length_bucket(8));
        // spread s: two lengths share a bucket only if they differ by ≤ s,
        // and each bucket spans exactly s + 1 consecutive lengths.
        let spec = PipelineSpec::serial().with_length_spread(3);
        for a in 1usize..40 {
            for b in 1usize..40 {
                if spec.length_bucket(a) == spec.length_bucket(b) {
                    assert!(a.abs_diff(b) <= 3, "{a} vs {b} share a bucket");
                }
            }
        }
        assert_eq!(spec.length_bucket(8), spec.length_bucket(11));
        assert_ne!(spec.length_bucket(7), spec.length_bucket(8));
    }
}
