//! The 20 synthetic QA-style tasks standing in for the bAbI suite.
//!
//! Each task is a parameterized episode generator over a shared token
//! encoding: a token vector of width `vocab + 2` holds a one-hot token, a
//! *store* flag and a *query* flag. The tasks differ in how many facts an
//! episode stores, how far queries reach back, and how queries relate to
//! the stored facts — spanning the memory-access patterns the bAbI tasks
//! exercise (single/multiple supporting facts, relations, counting,
//! ordering, path-finding, deduction...).

use crate::episode::{Episode, EpisodeBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Vocabulary size of the token encoding.
pub const VOCAB: usize = 12;
/// Token width: one-hot vocab + store flag + query flag.
pub const TOKEN_WIDTH: usize = VOCAB + 2;

/// How a task's queries relate to its stored facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryStyle {
    /// Recall the value paired with a key (content lookup).
    Recall,
    /// Recall the fact stored right after the probed one (temporal order).
    Successor,
    /// Recall the fact stored right before the probed one.
    Predecessor,
    /// Answer depends on several stored facts (chained supporting facts).
    Chained,
}

/// One synthetic task's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Task identifier (1-20, mirroring bAbI numbering).
    pub id: usize,
    /// Descriptive name (bAbI-style).
    pub name: &'static str,
    /// Facts stored per episode.
    pub facts: usize,
    /// Queries per episode.
    pub queries: usize,
    /// Distractor (no-op) tokens interleaved between facts.
    pub distractors: usize,
    /// Query style.
    pub style: QueryStyle,
    /// Episode-length jitter: each episode appends `0..=length_jitter`
    /// extra distractor tokens (drawn from its own RNG stream) between
    /// the store and query phases, so a batch of episodes is **ragged**
    /// — the real-bAbI-story shape the masked batched path serves. `0`
    /// (the whole built-in [`TASKS`] suite) draws nothing from the RNG
    /// and generates the historical episodes bit-for-bit.
    pub length_jitter: usize,
}

/// The 20-task suite (names mirror bAbI's task list).
pub const TASKS: [TaskSpec; 20] = [
    TaskSpec { id: 1, name: "single-supporting-fact", facts: 4, queries: 2, distractors: 2, style: QueryStyle::Recall, length_jitter: 0 },
    TaskSpec { id: 2, name: "two-supporting-facts", facts: 6, queries: 2, distractors: 2, style: QueryStyle::Chained, length_jitter: 0 },
    TaskSpec { id: 3, name: "three-supporting-facts", facts: 8, queries: 2, distractors: 3, style: QueryStyle::Chained, length_jitter: 0 },
    TaskSpec { id: 4, name: "two-arg-relations", facts: 4, queries: 2, distractors: 1, style: QueryStyle::Recall, length_jitter: 0 },
    TaskSpec { id: 5, name: "three-arg-relations", facts: 6, queries: 2, distractors: 1, style: QueryStyle::Recall, length_jitter: 0 },
    TaskSpec { id: 6, name: "yes-no-questions", facts: 5, queries: 3, distractors: 2, style: QueryStyle::Recall, length_jitter: 0 },
    TaskSpec { id: 7, name: "counting", facts: 7, queries: 2, distractors: 0, style: QueryStyle::Chained, length_jitter: 0 },
    TaskSpec { id: 8, name: "lists-sets", facts: 7, queries: 2, distractors: 1, style: QueryStyle::Chained, length_jitter: 0 },
    TaskSpec { id: 9, name: "simple-negation", facts: 5, queries: 2, distractors: 2, style: QueryStyle::Recall, length_jitter: 0 },
    TaskSpec { id: 10, name: "indefinite-knowledge", facts: 5, queries: 2, distractors: 2, style: QueryStyle::Recall, length_jitter: 0 },
    TaskSpec { id: 11, name: "basic-coreference", facts: 5, queries: 2, distractors: 1, style: QueryStyle::Successor, length_jitter: 0 },
    TaskSpec { id: 12, name: "conjunction", facts: 6, queries: 2, distractors: 1, style: QueryStyle::Recall, length_jitter: 0 },
    TaskSpec { id: 13, name: "compound-coreference", facts: 6, queries: 2, distractors: 1, style: QueryStyle::Successor, length_jitter: 0 },
    TaskSpec { id: 14, name: "time-reasoning", facts: 6, queries: 2, distractors: 2, style: QueryStyle::Predecessor, length_jitter: 0 },
    TaskSpec { id: 15, name: "basic-deduction", facts: 5, queries: 2, distractors: 1, style: QueryStyle::Chained, length_jitter: 0 },
    TaskSpec { id: 16, name: "basic-induction", facts: 6, queries: 2, distractors: 1, style: QueryStyle::Chained, length_jitter: 0 },
    TaskSpec { id: 17, name: "positional-reasoning", facts: 4, queries: 2, distractors: 1, style: QueryStyle::Successor, length_jitter: 0 },
    TaskSpec { id: 18, name: "size-reasoning", facts: 4, queries: 2, distractors: 1, style: QueryStyle::Predecessor, length_jitter: 0 },
    TaskSpec { id: 19, name: "path-finding", facts: 8, queries: 2, distractors: 0, style: QueryStyle::Chained, length_jitter: 0 },
    TaskSpec { id: 20, name: "agents-motivations", facts: 5, queries: 2, distractors: 2, style: QueryStyle::Recall, length_jitter: 0 },
];

impl TaskSpec {
    /// Base episode length: store steps + distractors + query steps.
    /// With [`length_jitter`](TaskSpec::length_jitter) this is the
    /// *minimum* length; see [`TaskSpec::max_episode_len`].
    pub fn episode_len(&self) -> usize {
        self.facts + self.distractors + self.queries
    }

    /// The longest episode this task can generate:
    /// [`TaskSpec::episode_len`] plus the length jitter.
    pub fn max_episode_len(&self) -> usize {
        self.episode_len() + self.length_jitter
    }

    /// A copy of this task generating **ragged** episodes: each episode
    /// appends `0..=jitter` extra distractors between its store and
    /// query phases (per-episode RNG stream, so episode `i`'s length is
    /// as scheduling-independent as its content).
    pub fn with_jitter(mut self, jitter: usize) -> Self {
        self.length_jitter = jitter;
        self
    }

    /// Generates a batch of `count` episodes from a seed.
    ///
    /// Each episode draws from its **own RNG stream**, derived from the
    /// base seed and the episode index — not from one shared mutable RNG.
    /// Episode `i` is therefore identical no matter how many episodes are
    /// generated around it or on which parallel lane it is produced,
    /// which keeps the batched harnesses bit-deterministic under any lane
    /// scheduling.
    pub fn generate(&self, count: usize, seed: u64) -> EpisodeBatch {
        let episodes = (0..count).map(|i| self.episode_at(seed, i)).collect();
        EpisodeBatch { task_id: self.id, episodes }
    }

    /// Generates episode `index` of the stream rooted at `seed` — the
    /// episode [`TaskSpec::generate`]`(count, seed)` places at `index`
    /// for any `count > index`.
    ///
    /// Each episode materializes from its own RNG stream, so episode
    /// `index` is bit-identical no matter which caller produces it or in
    /// what order — one episode can be drawn without its predecessors.
    pub fn episode_at(&self, seed: u64, index: usize) -> Episode {
        let mut rng = StdRng::seed_from_u64(self.episode_seed(seed, index));
        self.generate_episode(&mut rng)
    }

    /// The per-episode stream seed: base seed, task id and episode index
    /// mixed so neighbouring episodes land in unrelated streams.
    fn episode_seed(&self, seed: u64, episode: usize) -> u64 {
        (seed ^ ((self.id as u64) << 32))
            .wrapping_add((episode as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn generate_episode(&self, rng: &mut StdRng) -> Episode {
        let mut inputs = Vec::with_capacity(self.episode_len());
        let mut fact_tokens = Vec::with_capacity(self.facts);

        // Store phase: facts with store flag, interleaved distractors.
        let mut distractors_left = self.distractors;
        for f in 0..self.facts {
            let token = rng.gen_range(0..VOCAB);
            fact_tokens.push(token);
            inputs.push(encode(token, true, false));
            if distractors_left > 0 && f % 2 == 1 {
                inputs.push(encode(rng.gen_range(0..VOCAB), false, false));
                distractors_left -= 1;
            }
        }
        for _ in 0..distractors_left {
            inputs.push(encode(rng.gen_range(0..VOCAB), false, false));
        }

        // Length jitter: extra distractors make the batch ragged. A
        // jitter of zero draws nothing, keeping jitter-free episodes
        // bit-identical to the historical streams.
        if self.length_jitter > 0 {
            let extra = rng.gen_range(0..self.length_jitter + 1);
            for _ in 0..extra {
                inputs.push(encode(rng.gen_range(0..VOCAB), false, false));
            }
        }

        // Query phase: probe keys chosen per the task's style.
        let mut query_steps = Vec::with_capacity(self.queries);
        for q in 0..self.queries {
            let probe = match self.style {
                QueryStyle::Recall => fact_tokens[rng.gen_range(0..fact_tokens.len())],
                QueryStyle::Successor => {
                    fact_tokens[rng.gen_range(0..fact_tokens.len().saturating_sub(1).max(1))]
                }
                QueryStyle::Predecessor => {
                    fact_tokens[rng.gen_range(1..fact_tokens.len()).max(1) % fact_tokens.len()]
                }
                QueryStyle::Chained => fact_tokens[q % fact_tokens.len()],
            };
            query_steps.push(inputs.len());
            inputs.push(encode(probe, false, true));
        }

        Episode::new(inputs, query_steps)
    }
}

/// Encodes a token with its store/query flags into a `TOKEN_WIDTH` vector.
pub fn encode(token: usize, store: bool, query: bool) -> Vec<f32> {
    assert!(token < VOCAB, "token {token} outside vocabulary");
    let mut v = vec![0.0; TOKEN_WIDTH];
    v[token] = 1.0;
    v[VOCAB] = if store { 1.0 } else { 0.0 };
    v[VOCAB + 1] = if query { 1.0 } else { 0.0 };
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_20_unique_tasks() {
        assert_eq!(TASKS.len(), 20);
        let mut ids: Vec<usize> = TASKS.iter().map(|t| t.id).collect();
        ids.dedup();
        assert_eq!(ids, (1..=20).collect::<Vec<_>>());
        let names: std::collections::BTreeSet<_> = TASKS.iter().map(|t| t.name).collect();
        assert_eq!(names.len(), 20, "task names must be unique");
    }

    #[test]
    fn episodes_have_declared_shape() {
        for task in &TASKS {
            let batch = task.generate(3, 7);
            assert_eq!(batch.episodes.len(), 3);
            for e in &batch.episodes {
                assert_eq!(e.len(), task.episode_len(), "task {}", task.id);
                assert_eq!(e.width(), TOKEN_WIDTH);
                assert_eq!(e.query_steps.len(), task.queries);
                // Queries come after all stores.
                for &q in &e.query_steps {
                    assert!(q >= task.facts, "task {}: query at {q}", task.id);
                }
            }
        }
    }

    #[test]
    fn jittered_tasks_generate_ragged_batches_with_bounded_spread() {
        let task = TASKS[0].with_jitter(4);
        assert_eq!(task.max_episode_len(), task.episode_len() + 4);
        let batch = task.generate(12, 33);
        let lens: Vec<usize> = batch.episodes.iter().map(|e| e.len()).collect();
        assert!(lens.iter().all(|&l| (task.episode_len()..=task.max_episode_len()).contains(&l)));
        assert!(
            lens.iter().any(|&l| l != lens[0]),
            "12 episodes at jitter 4 should spread: {lens:?}"
        );
        assert_eq!(batch.uniform_len(), None, "jittered batches are ragged");
        // Extra tokens are distractors: query count and placement rules
        // are untouched.
        for e in &batch.episodes {
            assert_eq!(e.query_steps.len(), task.queries);
            for &q in &e.query_steps {
                assert_eq!(e.inputs[q][VOCAB + 1], 1.0);
            }
        }
    }

    #[test]
    fn zero_jitter_episodes_are_bit_identical_to_the_historical_streams() {
        // `with_jitter(0)` must not consume RNG draws: the episodes are
        // the same bits the suite has always generated.
        for task in &TASKS {
            assert_eq!(task.length_jitter, 0);
            assert_eq!(task.generate(3, 9), task.with_jitter(0).generate(3, 9));
        }
    }

    #[test]
    fn jittered_episode_streams_stay_index_independent() {
        let task = TASKS[2].with_jitter(5);
        let batch = task.generate(6, 51).episodes;
        for (i, want) in batch.iter().enumerate() {
            assert_eq!(&task.episode_at(51, i), want, "episode {i}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let t = &TASKS[0];
        assert_eq!(t.generate(2, 5), t.generate(2, 5));
        assert_ne!(t.generate(2, 5), t.generate(2, 6));
    }

    #[test]
    fn episode_streams_are_independent_of_batch_size() {
        // Per-episode RNG streams: episode i must be identical whether it
        // is generated alone, in a small batch or in a large one — the
        // property that makes parallel-lane generation deterministic.
        for task in &TASKS {
            let large = task.generate(8, 42).episodes;
            let small = task.generate(3, 42).episodes;
            assert_eq!(&large[..3], &small[..], "task {}", task.id);
            let solo = task.generate(1, 42).episodes;
            assert_eq!(large[0], solo[0], "task {}", task.id);
        }
    }

    #[test]
    fn episode_at_matches_batch_generation() {
        for task in &TASKS {
            let batch = task.generate(5, 77).episodes;
            for (i, want) in batch.iter().enumerate() {
                assert_eq!(&task.episode_at(77, i), want, "task {} episode {i}", task.id);
            }
        }
    }

    #[test]
    fn repeated_generation_is_bit_identical() {
        for task in &TASKS {
            let a = task.generate(5, 2021);
            let b = task.generate(5, 2021);
            assert_eq!(a, b, "task {}", task.id);
        }
    }

    #[test]
    fn different_tasks_generate_different_episodes() {
        let a = TASKS[0].generate(1, 9);
        let b = TASKS[1].generate(1, 9);
        assert_ne!(a.episodes[0], b.episodes[0]);
    }

    #[test]
    fn encode_sets_flags() {
        let v = encode(3, true, false);
        assert_eq!(v[3], 1.0);
        assert_eq!(v[VOCAB], 1.0);
        assert_eq!(v[VOCAB + 1], 0.0);
        let q = encode(0, false, true);
        assert_eq!(q[VOCAB + 1], 1.0);
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn encode_rejects_bad_token() {
        encode(VOCAB, false, false);
    }

    #[test]
    fn query_steps_point_at_query_flags() {
        for task in &TASKS {
            let batch = task.generate(2, 13);
            for e in &batch.episodes {
                for &q in &e.query_steps {
                    assert_eq!(e.inputs[q][VOCAB + 1], 1.0, "task {}", task.id);
                }
            }
        }
    }
}
