//! Episodic QA sequences: token streams with designated query steps.

use hima_tensor::{LaneMask, Matrix};

/// One episodic sequence: a stream of token vectors with query positions.
///
/// Facts are presented as one-hot-ish token vectors; at query steps the
/// input carries a query marker plus a key, and the model's output is read
/// out. All vectors share the episode's `width`.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    /// Input vector per time step.
    pub inputs: Vec<Vec<f32>>,
    /// Indices of the steps whose outputs are evaluated.
    pub query_steps: Vec<usize>,
}

impl Episode {
    /// Creates an episode, validating shape consistency.
    ///
    /// # Panics
    ///
    /// Panics if inputs are ragged, empty, or a query index is out of
    /// range.
    pub fn new(inputs: Vec<Vec<f32>>, query_steps: Vec<usize>) -> Self {
        assert!(!inputs.is_empty(), "episode needs at least one step");
        let width = inputs[0].len();
        assert!(inputs.iter().all(|v| v.len() == width), "ragged episode inputs");
        for &q in &query_steps {
            assert!(q < inputs.len(), "query step {q} beyond episode length {}", inputs.len());
        }
        Self { inputs, query_steps }
    }

    /// Number of time steps.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the episode has zero steps (never true for validated
    /// episodes).
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Input width (token vector size).
    pub fn width(&self) -> usize {
        self.inputs[0].len()
    }
}

/// A batch of episodes from one task.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeBatch {
    /// Task identifier (1-20).
    pub task_id: usize,
    /// The episodes.
    pub episodes: Vec<Episode>,
}

impl EpisodeBatch {
    /// The common episode length, if every episode in the batch has the
    /// same number of steps (the condition for lock-step batched
    /// execution). `None` for ragged batches or an empty batch.
    pub fn uniform_len(&self) -> Option<usize> {
        uniform_len(&self.episodes)
    }
}

/// The common episode length of a slice of episodes, if uniform (see
/// [`EpisodeBatch::uniform_len`]).
pub fn uniform_len(episodes: &[Episode]) -> Option<usize> {
    let len = episodes.first()?.len();
    episodes.iter().all(|e| e.len() == len).then_some(len)
}

/// The longest episode length in the slice — the number of masked steps
/// a padded ragged batch runs — or `None` for an empty slice.
pub fn max_len(episodes: &[Episode]) -> Option<usize> {
    episodes.iter().map(Episode::len).max()
}

/// Why a step block cannot be assembled from an episode slice — see
/// [`try_step_block`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepBlockError {
    /// The episode slice is empty: a step block has one row per episode,
    /// so there is no width to infer.
    Empty,
    /// An episode is too short for the requested step — the slice is
    /// non-uniform in length (or `t` is beyond even the longest episode).
    /// Uniformity is the precondition for lock-step batched execution;
    /// check it up front with [`uniform_len`], or pad and mask with
    /// [`try_masked_step_block`].
    StepOutOfRange {
        /// Index (within the slice) of the offending episode.
        episode: usize,
        /// That episode's length.
        len: usize,
        /// The requested time step.
        t: usize,
    },
    /// The requested step lies beyond even the longest episode of the
    /// slice, so not a single lane would be active — a masked ragged
    /// batch has nothing left to step. Raised only by
    /// [`try_masked_step_block`] (the uniform [`try_step_block`] reports
    /// the first too-short episode instead).
    StepBeyondLongest {
        /// Length of the longest episode in the slice.
        max_len: usize,
        /// The requested time step.
        t: usize,
    },
}

impl std::fmt::Display for StepBlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepBlockError::Empty => {
                write!(f, "cannot build a step block from zero episodes")
            }
            StepBlockError::StepOutOfRange { episode, len, t } => write!(
                f,
                "episode {episode} has {len} steps but step {t} was requested \
                 (non-uniform episode slice? check uniform_len() first)"
            ),
            StepBlockError::StepBeyondLongest { max_len, t } => write!(
                f,
                "step {t} is beyond every episode (longest has {max_len} steps); \
                 no lane would be active"
            ),
        }
    }
}

impl std::error::Error for StepBlockError {}

/// Stacks time step `t` of every episode into a `B × width` input block
/// (row `b` is episode `b`'s token at time `t`) — the bridge between an
/// [`EpisodeBatch`] and the batched `step_batch` model APIs, or an error
/// if the slice is empty or any episode is shorter than `t + 1` steps.
///
/// Callers stepping a slice in lock step should gate on [`uniform_len`]
/// and then iterate `t` up to that length; this function is the checked
/// fallback when that invariant is not established.
pub fn try_step_block(episodes: &[Episode], t: usize) -> Result<Matrix, StepBlockError> {
    if episodes.is_empty() {
        return Err(StepBlockError::Empty);
    }
    for (episode, e) in episodes.iter().enumerate() {
        if t >= e.len() {
            return Err(StepBlockError::StepOutOfRange { episode, len: e.len(), t });
        }
    }
    let rows: Vec<&[f32]> = episodes.iter().map(|e| e.inputs[t].as_slice()).collect();
    Ok(Matrix::from_rows(&rows))
}

/// Stacks time step `t` of every episode into a `B × width` input block
/// (row `b` is episode `b`'s token at time `t`) — the panicking form of
/// [`try_step_block`].
///
/// # Panics
///
/// Panics if `episodes` is empty or any episode has fewer than `t + 1`
/// steps (in particular, when a non-uniform-length slice is stepped past
/// its shortest episode). The panic message names the offending episode;
/// use [`try_step_block`] to handle the condition instead.
pub fn step_block(episodes: &[Episode], t: usize) -> Matrix {
    match try_step_block(episodes, t) {
        Ok(block) => block,
        Err(e) => panic!("step_block: {e}"),
    }
}

/// Stacks time step `t` of a **ragged** episode slice into a padded
/// `B × width` block plus the step's [`LaneMask`]: lane `b` carries
/// episode `b`'s token while `t < episodes[b].len()` and a zero padding
/// row (inactive in the mask, never read by the masked engines) once its
/// episode has ended — the bridge between a ragged [`EpisodeBatch`] and
/// `step_batch_masked`.
///
/// # Errors
///
/// [`StepBlockError::Empty`] for an empty slice, and
/// [`StepBlockError::StepBeyondLongest`] when `t` is past every episode
/// (the mask would have no active lane).
pub fn try_masked_step_block(
    episodes: &[Episode],
    t: usize,
) -> Result<(Matrix, LaneMask), StepBlockError> {
    if episodes.is_empty() {
        return Err(StepBlockError::Empty);
    }
    let max_len = max_len(episodes).expect("non-empty slice");
    if t >= max_len {
        return Err(StepBlockError::StepBeyondLongest { max_len, t });
    }
    let width = episodes[0].width();
    let zero = vec![0.0f32; width];
    let rows: Vec<&[f32]> = episodes
        .iter()
        .map(|e| e.inputs.get(t).map_or(zero.as_slice(), Vec::as_slice))
        .collect();
    let lens: Vec<usize> = episodes.iter().map(Episode::len).collect();
    Ok((Matrix::from_rows(&rows), LaneMask::for_step(&lens, t)))
}

/// Stacks time step `t` of a ragged episode slice into a padded block
/// plus its [`LaneMask`] — the panicking form of
/// [`try_masked_step_block`].
///
/// # Panics
///
/// Panics if `episodes` is empty or `t` is beyond even the longest
/// episode; the panic message carries the longest length.
pub fn masked_step_block(episodes: &[Episode], t: usize) -> (Matrix, LaneMask) {
    match try_masked_step_block(episodes, t) {
        Ok(pair) => pair,
        Err(e) => panic!("masked_step_block: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episode_shape_checks() {
        let e = Episode::new(vec![vec![1.0, 0.0], vec![0.0, 1.0]], vec![1]);
        assert_eq!(e.len(), 2);
        assert_eq!(e.width(), 2);
        assert!(!e.is_empty());
    }

    #[test]
    #[should_panic(expected = "ragged episode inputs")]
    fn rejects_ragged() {
        Episode::new(vec![vec![1.0], vec![1.0, 2.0]], vec![]);
    }

    #[test]
    #[should_panic(expected = "beyond episode length")]
    fn rejects_bad_query() {
        Episode::new(vec![vec![1.0]], vec![3]);
    }

    fn ep(steps: usize, queries: Vec<usize>) -> Episode {
        Episode::new(vec![vec![0.0, 1.0]; steps], queries)
    }

    #[test]
    fn empty_batch_has_no_queries_and_no_uniform_len() {
        let b = EpisodeBatch { task_id: 3, episodes: vec![] };
        assert_eq!(b.uniform_len(), None, "an empty batch has no common length");
    }

    #[test]
    fn single_episode_batch_is_uniform() {
        let b = EpisodeBatch { task_id: 3, episodes: vec![ep(4, vec![3])] };
        assert_eq!(b.uniform_len(), Some(4));
    }

    #[test]
    fn mixed_length_batch_is_not_uniform() {
        let b = EpisodeBatch { task_id: 3, episodes: vec![ep(4, vec![]), ep(2, vec![1])] };
        assert_eq!(b.uniform_len(), None);
        // Same-length episodes with different query layouts stay uniform.
        let u = EpisodeBatch { task_id: 3, episodes: vec![ep(4, vec![0]), ep(4, vec![1, 2])] };
        assert_eq!(u.uniform_len(), Some(4));
    }

    #[test]
    fn try_step_block_stacks_uniform_slices() {
        let eps = [ep(3, vec![]), ep(3, vec![2])];
        let block = try_step_block(&eps, 2).expect("uniform slice");
        assert_eq!(block.shape(), (2, 2));
        assert_eq!(step_block(&eps, 0), try_step_block(&eps, 0).unwrap());
    }

    #[test]
    fn try_step_block_rejects_empty_and_short_episodes() {
        assert_eq!(try_step_block(&[], 0), Err(StepBlockError::Empty));
        let eps = [ep(4, vec![]), ep(2, vec![])];
        // Steps 0..2 exist in both episodes; step 2 only in the first.
        assert!(try_step_block(&eps, 1).is_ok());
        assert_eq!(
            try_step_block(&eps, 2),
            Err(StepBlockError::StepOutOfRange { episode: 1, len: 2, t: 2 })
        );
        let msg = StepBlockError::StepOutOfRange { episode: 1, len: 2, t: 2 }.to_string();
        assert!(msg.contains("episode 1"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "episode 1 has 2 steps but step 2 was requested")]
    fn step_block_panics_with_the_offending_episode() {
        let eps = [ep(4, vec![]), ep(2, vec![])];
        step_block(&eps, 2);
    }

    #[test]
    #[should_panic(expected = "zero episodes")]
    fn step_block_panics_on_empty_slice() {
        step_block(&[], 0);
    }

    #[test]
    fn max_len_tracks_longest_episode() {
        assert_eq!(max_len(&[]), None);
        assert_eq!(max_len(&[ep(2, vec![]), ep(5, vec![]), ep(3, vec![])]), Some(5));
    }

    #[test]
    fn masked_step_block_pads_and_masks_the_tail() {
        let eps = [ep(4, vec![]), ep(2, vec![1]), ep(3, vec![2])];
        // All lanes live: identical to the uniform block.
        let (b0, m0) = masked_step_block(&eps, 1);
        assert_eq!(b0, step_block(&eps, 1));
        assert!(m0.is_full());
        // Tail step: episode 1 has ended — its row is zero padding and
        // its lane inactive.
        let (b2, m2) = masked_step_block(&eps, 2);
        assert_eq!(m2.as_bools(), &[true, false, true]);
        assert_eq!(b2.row(0), eps[0].inputs[2].as_slice());
        assert!(b2.row(1).iter().all(|&x| x == 0.0), "ended lane padded with zeros");
        assert_eq!(b2.row(2), eps[2].inputs[2].as_slice());
        // Last step: only the longest episode remains.
        let (_, m3) = masked_step_block(&eps, 3);
        assert_eq!(m3.active_lanes().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn try_masked_step_block_error_contracts() {
        assert_eq!(try_masked_step_block(&[], 0), Err(StepBlockError::Empty));
        let eps = [ep(2, vec![]), ep(4, vec![])];
        assert!(try_masked_step_block(&eps, 3).is_ok(), "last live step of the longest");
        assert_eq!(
            try_masked_step_block(&eps, 4),
            Err(StepBlockError::StepBeyondLongest { max_len: 4, t: 4 })
        );
        let msg = StepBlockError::StepBeyondLongest { max_len: 4, t: 4 }.to_string();
        assert!(msg.contains("longest has 4 steps"), "{msg}");
        assert!(msg.contains("step 4"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "step 5 is beyond every episode (longest has 4 steps)")]
    fn masked_step_block_panics_past_the_longest_episode() {
        masked_step_block(&[ep(4, vec![]), ep(2, vec![])], 5);
    }

    #[test]
    #[should_panic(expected = "zero episodes")]
    fn masked_step_block_panics_on_empty_slice() {
        masked_step_block(&[], 0);
    }
}
