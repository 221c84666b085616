//! bAbI-format round trip on genuinely **variable-length** stories.
//!
//! The unit tests in `babi_format` exercise a fixed two-story sample;
//! real bAbI files interleave stories of very different lengths. This
//! integration target builds a synthetic corpus whose stories vary in
//! statement count, question count and question placement, and pins:
//!
//! * render → parse is the identity on every story shape,
//! * encoding yields a **ragged** episode batch (the real-data shape the
//!   masked batched path exists for) with aligned answers,
//! * the ragged encoded episodes run through the padded-and-masked
//!   batched feature path bit-identically to per-episode sequential
//!   stepping — bAbI traffic is first-class batched traffic.

use hima_dnc::{DncParams, EngineBuilder};
use hima_tasks::babi_format::{
    encode_story, parse_stories, render_story, BabiLine, Story, Vocabulary,
};
use hima_tasks::episode::uniform_len;
use hima_tasks::train::{episode_features, sequential_episode_features};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ACTORS: [&str; 5] = ["mary", "john", "daniel", "sandra", "fred"];
const PLACES: [&str; 6] = ["bathroom", "hallway", "kitchen", "garden", "office", "bedroom"];

/// One variable-length story: `facts` movement statements followed by
/// `questions` where-is questions, each supported by the most recent
/// fact about the probed actor.
fn story(rng: &mut StdRng, facts: usize, questions: usize) -> Story {
    let mut lines = Vec::new();
    let mut last_place: Vec<Option<(usize, &str)>> = vec![None; ACTORS.len()];
    for _ in 0..facts {
        let a = rng.gen_range(0..ACTORS.len());
        let p = PLACES[rng.gen_range(0..PLACES.len())];
        last_place[a] = Some((lines.len() + 1, p));
        lines.push(BabiLine::Statement {
            words: vec![ACTORS[a].to_string(), "moved".into(), "to".into(), "the".into(), p.into()],
        });
    }
    for _ in 0..questions {
        // Probe an actor that has a stored fact.
        let known: Vec<usize> =
            (0..ACTORS.len()).filter(|&a| last_place[a].is_some()).collect();
        let a = known[rng.gen_range(0..known.len())];
        let (support, place) = last_place[a].expect("picked from known actors");
        lines.push(BabiLine::Question {
            words: vec!["where".into(), "is".into(), ACTORS[a].to_string()],
            answer: place.to_string(),
            supports: vec![support],
        });
    }
    Story { lines }
}

/// A corpus whose story lengths spread widely (2..=12 facts, 1..=3
/// questions) — the ragged workload under test.
fn ragged_corpus(seed: u64, stories: usize) -> Vec<Story> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..stories)
        .map(|_| {
            let facts = rng.gen_range(2..13);
            let questions = rng.gen_range(1..4);
            story(&mut rng, facts, questions)
        })
        .collect()
}

#[test]
fn variable_length_stories_round_trip_through_the_text_format() {
    let stories = ragged_corpus(7, 12);
    let lens: Vec<usize> = stories.iter().map(|s| s.lines.len()).collect();
    assert!(lens.iter().any(|&l| l != lens[0]), "corpus must vary in length: {lens:?}");
    // Every story shape survives render → parse, jointly and alone.
    let rendered: String = stories.iter().map(render_story).collect();
    let reparsed = parse_stories(&rendered).expect("rendered corpus parses");
    assert_eq!(stories, reparsed);
    for s in &stories {
        assert_eq!(parse_stories(&render_story(s)).unwrap(), vec![s.clone()]);
    }
}

#[test]
fn encoded_ragged_stories_keep_queries_and_answers_aligned() {
    let stories = ragged_corpus(21, 10);
    let vocab = Vocabulary::build(&stories);
    let encoded: Vec<_> = stories.iter().map(|s| encode_story(s, &vocab)).collect();
    let episodes: Vec<_> = encoded.iter().map(|e| e.episode.clone()).collect();
    assert_eq!(uniform_len(&episodes), None, "encoded corpus must be ragged");
    for (s, e) in stories.iter().zip(&encoded) {
        assert_eq!(e.episode.len(), s.lines.len(), "one step per line");
        assert_eq!(e.episode.query_steps.len(), s.question_count());
        assert_eq!(e.answers.len(), e.episode.query_steps.len());
        for (&q, &ans) in e.episode.query_steps.iter().zip(&e.answers) {
            assert_eq!(e.episode.inputs[q][vocab.len() + 1], 1.0, "query flag");
            assert!(ans < vocab.len(), "answer token in vocabulary");
        }
    }
}

#[test]
fn ragged_babi_episodes_run_masked_batched_bit_identically_to_sequential() {
    let stories = ragged_corpus(33, 8);
    let vocab = Vocabulary::build(&stories);
    let episodes: Vec<_> =
        stories.iter().map(|s| encode_story(s, &vocab).episode).collect();
    assert_eq!(uniform_len(&episodes), None, "workload must be ragged");
    let width = episodes[0].width();
    let params = DncParams::new(32, 8, 2).with_hidden(16).with_io(width, width);
    for builder in [
        EngineBuilder::new(params).seed(9),
        EngineBuilder::new(params).sharded(4).seed(9),
    ] {
        let batched = episode_features(&builder, &episodes);
        let mut single = builder.clone().lanes(1).build();
        let sequential = sequential_episode_features(&mut single, &episodes);
        assert_eq!(batched, sequential, "masked batched ≡ sequential on bAbI episodes");
    }
}
