//! Parser and encoder for the bAbI text format (Weston et al. 2015).
//!
//! The real dataset is not redistributable here, but a downstream user who
//! has it can run the accuracy harness on it directly: this module parses
//! the standard format
//!
//! ```text
//! 1 Mary moved to the bathroom.
//! 2 John went to the hallway.
//! 3 Where is Mary?\tbathroom\t1
//! ```
//!
//! (line numbers restart at 1 for each new story; question lines carry a
//! tab-separated answer and supporting-fact ids), builds a vocabulary, and
//! encodes stories into the same [`Episode`] representation the synthetic
//! suite uses — bag-of-words sentence vectors with store/query flags.

use crate::episode::Episode;
use std::collections::BTreeMap;

/// One line of a bAbI story.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BabiLine {
    /// A declarative fact.
    Statement {
        /// Whitespace-tokenized, lower-cased words (punctuation stripped).
        words: Vec<String>,
    },
    /// A question with its answer and supporting-fact line numbers.
    Question {
        /// Question words.
        words: Vec<String>,
        /// The answer token (bAbI answers are single words or
        /// comma-separated lists; kept verbatim, lower-cased).
        answer: String,
        /// Supporting fact line numbers within the story.
        supports: Vec<usize>,
    },
}

impl BabiLine {
    /// Whether this is a question line.
    pub(crate) fn is_question(&self) -> bool {
        matches!(self, BabiLine::Question { .. })
    }

    /// The line's words.
    pub fn words(&self) -> &[String] {
        match self {
            BabiLine::Statement { words } => words,
            BabiLine::Question { words, .. } => words,
        }
    }
}

/// A story: a sequence of numbered lines ending (usually) in questions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Story {
    /// Lines in order (index `i` is the story's line `i + 1`).
    pub lines: Vec<BabiLine>,
}

impl Story {
    /// Number of question lines.
    pub fn question_count(&self) -> usize {
        self.lines.iter().filter(|l| l.is_question()).count()
    }
}

/// Errors from parsing bAbI text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseBabiError {
    /// A line did not start with a number.
    MissingLineNumber {
        /// The offending line (truncated).
        line: String,
    },
    /// A question line lacked its tab-separated answer.
    MissingAnswer {
        /// The offending line (truncated).
        line: String,
    },
}

impl std::fmt::Display for ParseBabiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseBabiError::MissingLineNumber { line } => {
                write!(f, "bAbI line has no leading number: {line:?}")
            }
            ParseBabiError::MissingAnswer { line } => {
                write!(f, "bAbI question has no answer field: {line:?}")
            }
        }
    }
}

impl std::error::Error for ParseBabiError {}

fn tokenize(text: &str) -> Vec<String> {
    text.split_whitespace()
        .map(|w| {
            w.trim_matches(|c: char| !c.is_alphanumeric())
                .to_lowercase()
        })
        .filter(|w| !w.is_empty())
        .collect()
}

/// Parses bAbI-format text into stories.
///
/// # Errors
///
/// Returns [`ParseBabiError`] on malformed lines; blank lines are skipped.
pub fn parse_stories(text: &str) -> Result<Vec<Story>, ParseBabiError> {
    let mut stories = Vec::new();
    let mut current = Story::default();
    for raw in text.lines() {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let (num, rest) = raw
            .split_once(' ')
            .ok_or_else(|| ParseBabiError::MissingLineNumber { line: truncate(raw) })?;
        let index: usize = num
            .parse()
            .map_err(|_| ParseBabiError::MissingLineNumber { line: truncate(raw) })?;
        if index == 1 && !current.lines.is_empty() {
            stories.push(std::mem::take(&mut current));
        }

        if rest.contains('\t') {
            let mut parts = rest.split('\t');
            let question = parts.next().unwrap_or_default();
            let answer = parts
                .next()
                .map(|a| a.trim().to_lowercase())
                .filter(|a| !a.is_empty())
                .ok_or_else(|| ParseBabiError::MissingAnswer { line: truncate(raw) })?;
            let supports = parts
                .next()
                .map(|s| s.split_whitespace().filter_map(|n| n.parse().ok()).collect())
                .unwrap_or_default();
            current.lines.push(BabiLine::Question { words: tokenize(question), answer, supports });
        } else {
            current.lines.push(BabiLine::Statement { words: tokenize(rest) });
        }
    }
    if !current.lines.is_empty() {
        stories.push(current);
    }
    Ok(stories)
}

fn truncate(s: &str) -> String {
    s.chars().take(60).collect()
}

/// A word → token-id mapping built from a corpus.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Vocabulary {
    ids: BTreeMap<String, usize>,
}

impl Vocabulary {
    /// Builds the vocabulary from stories (words + answers, sorted for
    /// determinism).
    pub fn build(stories: &[Story]) -> Self {
        let mut ids = BTreeMap::new();
        let mut insert = |w: &str| {
            let next = ids.len();
            ids.entry(w.to_string()).or_insert(next);
        };
        for story in stories {
            for line in &story.lines {
                for w in line.words() {
                    insert(w);
                }
                if let BabiLine::Question { answer, .. } = line {
                    insert(answer);
                }
            }
        }
        Self { ids }
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Token id of `word`, if known.
    pub fn id(&self, word: &str) -> Option<usize> {
        self.ids.get(&word.to_lowercase()).copied()
    }
}

/// An encoded story: the episode plus the expected answer token per query
/// step (aligned with `episode.query_steps`).
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedStory {
    /// The token-vector episode (width = vocab + 2 flags).
    pub episode: Episode,
    /// Answer token ids, one per query step.
    pub answers: Vec<usize>,
}

/// Encodes a story as bag-of-words sentence vectors with store/query
/// flags (the same layout as the synthetic suite: `vocab` one-hot lanes
/// plus a store flag and a query flag).
///
/// Words or answers missing from `vocab` are skipped (facts) or drop the
/// query (questions), so encoding never panics on out-of-vocabulary text.
pub fn encode_story(story: &Story, vocab: &Vocabulary) -> EncodedStory {
    let width = vocab.len() + 2;
    let (store_flag, query_flag) = (vocab.len(), vocab.len() + 1);
    let mut inputs = Vec::with_capacity(story.lines.len());
    let mut query_steps = Vec::new();
    let mut answers = Vec::new();

    for line in &story.lines {
        let mut v = vec![0.0f32; width];
        for w in line.words() {
            if let Some(id) = vocab.id(w) {
                v[id] = 1.0;
            }
        }
        match line {
            BabiLine::Statement { .. } => v[store_flag] = 1.0,
            BabiLine::Question { answer, .. } => {
                if let Some(ans_id) = vocab.id(answer) {
                    v[query_flag] = 1.0;
                    query_steps.push(inputs.len());
                    answers.push(ans_id);
                }
            }
        }
        inputs.push(v);
    }
    EncodedStory { episode: Episode::new(inputs, query_steps), answers }
}

/// Renders a story back into bAbI text format (round-trip support and
/// synthetic-corpus export).
pub fn render_story(story: &Story) -> String {
    let mut out = String::new();
    for (i, line) in story.lines.iter().enumerate() {
        match line {
            BabiLine::Statement { words } => {
                out.push_str(&format!("{} {}.\n", i + 1, words.join(" ")));
            }
            BabiLine::Question { words, answer, supports } => {
                let supports: Vec<String> = supports.iter().map(|s| s.to_string()).collect();
                out.push_str(&format!(
                    "{} {}?\t{}\t{}\n",
                    i + 1,
                    words.join(" "),
                    answer,
                    supports.join(" ")
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
1 Mary moved to the bathroom.
2 John went to the hallway.
3 Where is Mary?\tbathroom\t1
1 Daniel took the apple.
2 Where is the apple?\tdaniel\t1
";

    #[test]
    fn parses_two_stories() {
        let stories = parse_stories(SAMPLE).unwrap();
        assert_eq!(stories.len(), 2);
        assert_eq!(stories[0].lines.len(), 3);
        assert_eq!(stories[0].question_count(), 1);
        assert_eq!(stories[1].lines.len(), 2);
    }

    #[test]
    fn question_fields_parsed() {
        let stories = parse_stories(SAMPLE).unwrap();
        match &stories[0].lines[2] {
            BabiLine::Question { words, answer, supports } => {
                assert_eq!(words, &["where", "is", "mary"]);
                assert_eq!(answer, "bathroom");
                assert_eq!(supports, &[1]);
            }
            other => panic!("expected question, got {other:?}"),
        }
    }

    #[test]
    fn statements_lowercased_and_depunctuated() {
        let stories = parse_stories("1 Mary moved to the BATHROOM.\n").unwrap();
        assert_eq!(
            stories[0].lines[0].words(),
            &["mary", "moved", "to", "the", "bathroom"]
        );
    }

    #[test]
    fn rejects_missing_line_number() {
        let err = parse_stories("Mary moved.\n").unwrap_err();
        assert!(matches!(err, ParseBabiError::MissingLineNumber { .. }));
        assert!(err.to_string().contains("no leading number"));
    }

    #[test]
    fn rejects_missing_answer() {
        let err = parse_stories("1 Where is Mary?\t\t1\n").unwrap_err();
        assert!(matches!(err, ParseBabiError::MissingAnswer { .. }));
    }

    #[test]
    fn vocabulary_is_deterministic_and_complete() {
        let stories = parse_stories(SAMPLE).unwrap();
        let vocab = Vocabulary::build(&stories);
        assert!(vocab.id("mary").is_some());
        assert!(vocab.id("bathroom").is_some());
        assert!(vocab.id("daniel").is_some(), "answers must enter the vocabulary");
        assert!(vocab.id("zebra").is_none());
        // Case-insensitive lookup.
        assert_eq!(vocab.id("MARY"), vocab.id("mary"));
        let again = Vocabulary::build(&stories);
        assert_eq!(vocab, again);
    }

    #[test]
    fn encoding_produces_flagged_episode() {
        let stories = parse_stories(SAMPLE).unwrap();
        let vocab = Vocabulary::build(&stories);
        let enc = encode_story(&stories[0], &vocab);
        assert_eq!(enc.episode.len(), 3);
        assert_eq!(enc.episode.width(), vocab.len() + 2);
        assert_eq!(enc.episode.query_steps, vec![2]);
        assert_eq!(enc.answers, vec![vocab.id("bathroom").unwrap()]);
        // Store flag on facts, query flag on questions.
        let store = vocab.len();
        let query = vocab.len() + 1;
        assert_eq!(enc.episode.inputs[0][store], 1.0);
        assert_eq!(enc.episode.inputs[0][query], 0.0);
        assert_eq!(enc.episode.inputs[2][query], 1.0);
        // The word "mary" is set in the question's bag of words.
        assert_eq!(enc.episode.inputs[2][vocab.id("mary").unwrap()], 1.0);
    }

    #[test]
    fn out_of_vocabulary_answer_drops_query() {
        let stories = parse_stories("1 Mary ran.\n2 Where is Mary?\tbathroom\t1\n").unwrap();
        // Build the vocabulary WITHOUT the answer by using only line 1.
        let vocab = Vocabulary::build(&parse_stories("1 Mary ran.\n").unwrap());
        let enc = encode_story(&stories[0], &vocab);
        assert!(enc.episode.query_steps.is_empty());
        assert!(enc.answers.is_empty());
    }

    #[test]
    fn round_trip_render_parse() {
        let stories = parse_stories(SAMPLE).unwrap();
        let rendered: String = stories.iter().map(render_story).collect();
        let reparsed = parse_stories(&rendered).unwrap();
        assert_eq!(stories, reparsed);
    }

    #[test]
    fn encoded_story_runs_through_the_dnc() {
        let stories = parse_stories(SAMPLE).unwrap();
        let vocab = Vocabulary::build(&stories);
        let enc = encode_story(&stories[0], &vocab);
        let width = enc.episode.width();
        let params = hima_dnc::DncParams::new(32, 8, 1).with_hidden(16).with_io(width, width);
        let mut dnc = hima_dnc::EngineBuilder::new(params).seed(3).build();
        let outputs: Vec<Vec<f32>> = enc.episode.inputs.iter().map(|x| dnc.step(x)).collect();
        assert_eq!(outputs.len(), enc.episode.len());
        assert!(outputs.iter().flatten().all(|x| x.is_finite()));
    }
}
