//! Cross-crate **backend conformance suite**: the [`Backend`] label
//! selects nothing.
//!
//! There is one kernel tier, so an engine built with the `Blocked` label
//! is the engine built with `Scalar` — the label is stored, round-tripped
//! by the wire and snapshot formats, and read by no kernel. The contract
//! pinned here:
//!
//! * **label independence** — a `Blocked`-labelled engine stepping the
//!   same episode stream as a `Scalar`-labelled one is **`to_bits`-equal**
//!   on outputs, read rows and feature rows at *every* step, across
//!   topology (monolithic | sharded) × datapath (f32 | Q16.16) ×
//!   skim/PLA × masked/uniform × B ∈ {1, 3, 8},
//! * **default stability** — `Backend::Scalar` is the default on every
//!   constructor path.
//!
//! With this, the repository has one numerics contract: every engine, on
//! every spec, is bit-identical to solo scalar replay.

use hima::dnc::allocation::SkimRate;
use hima::dnc::{Datapath, DncParams, EngineBuilder, EngineSpec};
use hima::tasks::episode::{masked_step_block, max_len};
use hima::tasks::tasks::TOKEN_WIDTH;
use hima::tasks::Episode;
use hima::tensor::{Backend, QFormat};
use hima_testkit::cases::{check, Gen};
use hima_testkit::ragged_episodes;

const BATCHES: [usize; 3] = [1, 3, 8];
const SEED: u64 = 43;

fn params() -> DncParams {
    DncParams::new(16, 4, 2).with_hidden(16).with_io(TOKEN_WIDTH, TOKEN_WIDTH)
}

fn builder(spec: EngineSpec) -> EngineBuilder {
    EngineBuilder::new(params()).with_spec(spec).seed(SEED)
}

/// `Scalar`-labelled spec grid; each entry is compared against itself
/// with the `Blocked` label swapped in.
fn specs() -> Vec<EngineSpec> {
    let q = Datapath::Quantized(QFormat::q16_16());
    vec![
        EngineSpec::monolithic(),
        EngineSpec::sharded(2),
        EngineSpec::sharded(4),
        EngineSpec::monolithic().with_datapath(q),
        EngineSpec::sharded(2).with_datapath(q),
        EngineSpec::monolithic().with_skim(SkimRate::new(0.2)),
        EngineSpec { approx_softmax: true, ..EngineSpec::monolithic() },
    ]
}

fn assert_rows_equal(label: &str, got: &[f32], want: &[f32], what: &str) {
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{label}: {what} differs in bits between the labels");
}

/// The label-independence contract: a `Blocked`-labelled engine and a
/// `Scalar`-labelled one fed the same masked episode stream are equal in
/// bits on outputs, read rows and feature rows at every step.
fn assert_blocked_tracks_scalar(spec: EngineSpec, episodes: &[Episode]) {
    let lanes = episodes.len();
    let steps = max_len(episodes).expect("non-empty set");
    let mut scalar = builder(spec).lanes(lanes).build();
    let mut blocked = builder(spec.with_backend(Backend::Blocked)).lanes(lanes).build();
    for t in 0..steps {
        let (block, mask) = masked_step_block(episodes, t);
        let ys = scalar.step_batch_masked(&block, &mask);
        let yb = blocked.step_batch_masked(&block, &mask);
        let label = format!("{} B={lanes} t={t}", spec.label());
        assert_rows_equal(&label, yb.as_slice(), ys.as_slice(), "output");
        assert_rows_equal(
            &label,
            blocked.last_read_rows().as_slice(),
            scalar.last_read_rows().as_slice(),
            "read rows",
        );
        assert_rows_equal(
            &label,
            blocked.last_features_rows().as_slice(),
            scalar.last_features_rows().as_slice(),
            "feature rows",
        );
    }
}

#[test]
fn blocked_tier_tracks_scalar_across_the_axis_grid() {
    let draw = |g: &mut Gen| {
        [ragged_episodes(g, 1..=1, 2..=8), ragged_episodes(g, 3..=3, 2..=8), ragged_episodes(g, 8..=8, 2..=9)]
    };
    check("blocked_tier_tracks_scalar_across_the_axis_grid", 3, draw, |sets| {
        for episodes in &sets {
            assert!(BATCHES.contains(&episodes.len()));
            for spec in specs() {
                assert_blocked_tracks_scalar(spec, episodes);
            }
        }
    });
}

#[test]
fn uniform_batches_track_too() {
    // The fully-active mask is the uniform fast path; pin it separately
    // from the generated ragged sets with a deterministic episode batch.
    check("uniform_batches_track_too", 1, |g| ragged_episodes(g, 4..=4, 6..=6), |episodes| {
        for spec in specs() {
            assert_blocked_tracks_scalar(spec, &episodes);
        }
    });
}

#[test]
fn scalar_backend_is_the_default_and_bit_stable() {
    // The default spec carries the `Scalar` label, and setting it
    // explicitly is the very same engine.
    assert_eq!(EngineSpec::default().backend, Backend::Scalar);
    let draw = |g: &mut Gen| ragged_episodes(g, 3..=3, 2..=6);
    check("scalar_backend_is_the_default_and_bit_stable", 1, draw, |episodes| {
        let steps = max_len(&episodes).unwrap();
        let mut implicit = builder(EngineSpec::monolithic()).lanes(3).build();
        let mut explicit = builder(EngineSpec::monolithic().with_backend(Backend::Scalar)).lanes(3).build();
        for t in 0..steps {
            let (block, mask) = masked_step_block(&episodes, t);
            assert_eq!(implicit.step_batch_masked(&block, &mask), explicit.step_batch_masked(&block, &mask), "t {t}");
        }
    });
}
