//! Ragged episode sets, the inputs every ragged conformance suite draws
//! (`hima-dnc`'s engine-level masked tests and the workspace's
//! `tests/ragged_conformance.rs` and `tests/backend_conformance.rs`):
//! batches of unequal-length episodes with queries anywhere in them, in
//! the standard `TOKEN_WIDTH` encoding, so any engine built with task-token
//! I/O consumes them directly.

use crate::cases::Gen;
use hima_tasks::tasks::{encode, VOCAB};
use hima_tasks::Episode;
use std::ops::RangeInclusive;

/// `batch` episodes of `len` steps each, the lengths drawn independently
/// (the width of `len` *is* the length spread), each with one or two query
/// steps placed uniformly at random (distinct, sorted). Both counts are
/// collection lengths, so a shrunk case has fewer, shorter episodes.
pub fn ragged_episodes(
    g: &mut Gen,
    batch: RangeInclusive<usize>,
    len: RangeInclusive<usize>,
) -> Vec<Episode> {
    assert!(*batch.start() >= 1, "need at least one episode");
    assert!(*len.start() >= 1, "episodes need at least one step");
    let batch = g.length(batch);
    (0..batch).map(|_| episode(g, len.clone())).collect()
}

fn episode(g: &mut Gen, len: RangeInclusive<usize>) -> Episode {
    let len = g.length(len);
    let mut inputs: Vec<Vec<f32>> =
        (0..len).map(|_| encode(g.range(0..VOCAB), g.bool(), false)).collect();
    let queries = g.range(1..=len.min(2));
    let mut query_steps = Vec::with_capacity(queries);
    while query_steps.len() < queries {
        let q = g.range(0..len);
        if !query_steps.contains(&q) {
            query_steps.push(q);
        }
    }
    query_steps.sort_unstable();
    for &q in &query_steps {
        inputs[q] = encode(g.range(0..VOCAB), false, true);
    }
    Episode::new(inputs, query_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::check;
    use hima_tasks::episode::uniform_len;

    #[test]
    fn generated_sets_respect_batch_len_and_query_bounds() {
        let draw = |g: &mut Gen| ragged_episodes(g, 2..=6, 3..=9);
        check("generated_sets_respect_batch_len_and_query_bounds", 32, draw, |episodes| {
            assert!((2..=6).contains(&episodes.len()));
            for e in &episodes {
                assert!((3..=9).contains(&e.len()));
                assert!((1..=2).contains(&e.query_steps.len()));
                assert!(e.query_steps.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
                for &q in &e.query_steps {
                    assert!(q < e.len());
                    assert_eq!(e.inputs[q][VOCAB + 1], 1.0, "query flag set");
                }
            }
        });
    }

    #[test]
    fn wide_length_ranges_actually_spread() {
        // Not a hard guarantee per draw, but across 8 episodes of a 2..=12
        // range a uniform batch is vanishingly unlikely; the seeds are
        // fixed, so this is stable.
        check("wide_length_ranges_actually_spread", 32, |g| ragged_episodes(g, 8..=8, 2..=12), |episodes| {
            assert!(uniform_len(&episodes).is_none());
        });
    }

    #[test]
    fn fixed_length_range_degenerates_to_uniform() {
        check("fixed_length_range_degenerates_to_uniform", 1, |g| ragged_episodes(g, 3..=3, 5..=5), |episodes| {
            assert_eq!((episodes.len(), uniform_len(&episodes)), (3, Some(5)));
        });
    }
}
