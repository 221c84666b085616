//! Proptest strategies for **ragged** episode sets — shared test support.
//!
//! The ragged conformance suites across the workspace (`hima-dnc`'s
//! engine-level masked tests, this crate's harness tests and the
//! workspace-level `tests/ragged_conformance.rs`) all need the same
//! inputs: batches of unequal-length episodes with controlled length
//! spread and query placement. This module is the single implementation,
//! exposed as a [`proptest`] strategy so the suites stay property-driven:
//! [`ragged_episodes`] draws direct [`Episode`] sets with a chosen batch
//! range and per-episode length range (the spread knob), queries placed
//! anywhere in the episode.
//!
//! Episodes use the standard [`TOKEN_WIDTH`](crate::tasks::TOKEN_WIDTH)
//! encoding, so any engine built with task-token I/O consumes them
//! directly.

use crate::episode::Episode;
use crate::tasks::{encode, VOCAB};
use proptest::strategy::Strategy;
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::RangeInclusive;

/// Strategy generating ragged episode sets: `batch` episodes, each
/// `len`-steps long (lengths drawn independently — the width of `len`
/// *is* the length spread), with 1 to `max_queries` query steps placed
/// uniformly at random (distinct, sorted).
///
/// Build with [`ragged_episodes`].
#[derive(Debug, Clone)]
pub struct RaggedEpisodes {
    batch: RangeInclusive<usize>,
    len: RangeInclusive<usize>,
    max_queries: usize,
}

/// Ragged episode sets with `batch` episodes of `len` steps each — see
/// [`RaggedEpisodes`].
pub fn ragged_episodes(
    batch: RangeInclusive<usize>,
    len: RangeInclusive<usize>,
) -> RaggedEpisodes {
    assert!(*batch.start() >= 1, "need at least one episode");
    assert!(*len.start() >= 1, "episodes need at least one step");
    RaggedEpisodes { batch, len, max_queries: 2 }
}

impl RaggedEpisodes {
    fn sample_in(rng: &mut StdRng, range: &RangeInclusive<usize>) -> usize {
        let (lo, hi) = (*range.start(), *range.end());
        if lo == hi {
            lo
        } else {
            rng.gen_range(lo..hi + 1)
        }
    }

    fn episode(&self, rng: &mut StdRng) -> Episode {
        let len = Self::sample_in(rng, &self.len);
        let inputs: Vec<Vec<f32>> = (0..len)
            .map(|_| {
                let token = rng.gen_range(0..VOCAB);
                let store = rng.gen_range(0..2) == 0;
                encode(token, store, false)
            })
            .collect();
        let mut inputs = inputs;
        // Query placement: anywhere in the episode, distinct steps.
        let queries = Self::sample_in(rng, &(1..=self.max_queries.min(len)));
        let mut query_steps = Vec::with_capacity(queries);
        while query_steps.len() < queries {
            let q = rng.gen_range(0..len);
            if !query_steps.contains(&q) {
                query_steps.push(q);
            }
        }
        query_steps.sort_unstable();
        for &q in &query_steps {
            let token = rng.gen_range(0..VOCAB);
            inputs[q] = encode(token, false, true);
        }
        Episode::new(inputs, query_steps)
    }
}

impl Strategy for RaggedEpisodes {
    type Value = Vec<Episode>;

    fn generate(&self, rng: &mut StdRng) -> Vec<Episode> {
        let batch = Self::sample_in(rng, &self.batch);
        (0..batch).map(|_| self.episode(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::uniform_len;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn generated_sets_respect_batch_len_and_query_bounds(
            episodes in RaggedEpisodes { max_queries: 3, ..ragged_episodes(2..=6, 3..=9) }
        ) {
            prop_assert!((2..=6).contains(&episodes.len()));
            for e in &episodes {
                prop_assert!((3..=9).contains(&e.len()));
                prop_assert!((1..=3).contains(&e.query_steps.len()));
                prop_assert!(e.query_steps.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
                for &q in &e.query_steps {
                    prop_assert!(q < e.len());
                    prop_assert_eq!(e.inputs[q][VOCAB + 1], 1.0, "query flag set");
                }
            }
        }

        #[test]
        fn wide_length_ranges_actually_spread(
            episodes in ragged_episodes(8..=8, 2..=12)
        ) {
            // Not a hard guarantee per draw, but across 8 episodes of a
            // 2..=12 range a uniform batch is vanishingly unlikely; the
            // deterministic test RNG makes this stable.
            prop_assert!(uniform_len(&episodes).is_none() || episodes.len() == 1);
        }
    }

    #[test]
    fn fixed_length_range_degenerates_to_uniform() {
        use proptest::strategy::Strategy as _;
        let strat = ragged_episodes(3..=3, 5..=5);
        let eps = strat.generate(&mut proptest::test_runner::rng_for("fixed"));
        assert_eq!(eps.len(), 3);
        assert_eq!(uniform_len(&eps), Some(5));
    }
}
