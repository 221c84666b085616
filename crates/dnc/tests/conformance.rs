//! Conformance + equivalence suite for [`hima_dnc::GridEngine`].
//!
//! Every configuration the [`EngineBuilder`] can produce — topology
//! (monolithic | sharded) × lanes (B ∈ {1, 3, 8}) × datapath (f32 |
//! Q16.16) — must behave identically through the one engine API:
//!
//! * **batched ≡ sequential**: a `lanes(B)` engine reproduces `B`
//!   independent `lanes(1)` engines bit-for-bit,
//! * **oracle anchoring**: every f32 lane — monolithic, sharded over 1 to
//!   4 tiles, at awkward widths, under ragged masks — is bit-identical to
//!   the sequential reference (`hima_testkit::reference::Dnc`) with the
//!   same spec and seed, and a calibrated merge is the reference pair's
//!   least-squares fit, bit for bit,
//! * **determinism across thread counts**: lane/shard fan-out never
//!   perturbs results,
//! * **reset** restores blank-lane behaviour,
//! * the engine surface (`batch`, `params`, `last_read_rows`,
//!   `last_features_rows`, `profile`, `step`, `run_sequence_batch`) is
//!   consistent for every variant.

use hima_dnc::allocation::SkimRate;
use hima_dnc::{Datapath, DncParams, EngineBuilder, EngineSpec, LaneMask, ReadMerge};
use hima_tensor::{Matrix, QFormat};
use hima_testkit::reference;

fn params() -> DncParams {
    DncParams::new(16, 4, 2).with_hidden(16).with_io(5, 5)
}

/// Every topology × datapath combination the suite enumerates, plus the
/// §5.2 approximation features (skimming, PLA+LUT softmax) that the
/// earlier per-type property tests covered.
fn specs() -> Vec<EngineSpec> {
    let q = Datapath::Quantized(QFormat::q16_16());
    vec![
        EngineSpec::monolithic(),
        EngineSpec::sharded(2),
        EngineSpec::sharded(4),
        EngineSpec::monolithic().with_datapath(q),
        EngineSpec::sharded(2).with_datapath(q),
        EngineSpec::sharded(4).with_datapath(q),
        EngineSpec::monolithic().with_skim(hima_dnc::allocation::SkimRate::new(0.2)),
        EngineSpec::sharded(2).with_skim(hima_dnc::allocation::SkimRate::new(0.2)),
        EngineSpec {
            approx_softmax: true,
            ..EngineSpec::monolithic().with_datapath(q)
        },
        EngineSpec { approx_softmax: true, ..EngineSpec::sharded(4) },
        // Skimming *and* the PLA softmax on one monolithic engine.
        EngineSpec {
            approx_softmax: true,
            ..EngineSpec::monolithic().with_skim(hima_dnc::allocation::SkimRate::new(0.2))
        },
    ]
}

const BATCHES: [usize; 3] = [1, 3, 8];
const STEPS: usize = 4;
const SEED: u64 = 29;

fn builder(spec: EngineSpec) -> EngineBuilder {
    EngineBuilder::new(params()).with_spec(spec).seed(SEED)
}

/// Per-lane input streams with lane-, time- and element-dependent values.
fn lane_streams(batch: usize, steps: usize, width: usize) -> Vec<Vec<Vec<f32>>> {
    (0..batch)
        .map(|b| {
            (0..steps)
                .map(|t| {
                    (0..width)
                        .map(|i| (((b * 131 + t * 17 + i * 7) as f32) * 0.13).sin())
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Stacks time step `t` of every lane stream into a `B × width` block.
fn block_at(streams: &[Vec<Vec<f32>>], t: usize) -> Matrix {
    let rows: Vec<&[f32]> = streams.iter().map(|s| s[t].as_slice()).collect();
    Matrix::from_rows(&rows)
}

#[test]
fn batched_stepping_matches_sequential_lanes_bit_for_bit() {
    for spec in specs() {
        for batch in BATCHES {
            let streams = lane_streams(batch, STEPS, 5);
            let mut batched = builder(spec).lanes(batch).build();
            let mut sequential: Vec<_> =
                (0..batch).map(|_| builder(spec).lanes(1).build()).collect();
            for t in 0..STEPS {
                let y = batched.step_batch(&block_at(&streams, t));
                let reads = batched.last_read_rows();
                for (b, lane) in sequential.iter_mut().enumerate() {
                    let want = lane.step(&streams[b][t]);
                    assert_eq!(
                        y.row(b),
                        &want[..],
                        "{} B={batch} lane {b} t {t}: outputs diverged",
                        spec.label()
                    );
                    assert_eq!(
                        reads.row(b),
                        lane.last_read_rows().row(0),
                        "{} B={batch} lane {b} t {t}: read vectors diverged",
                        spec.label()
                    );
                }
            }
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The oracle table, one topology per row: at the suite's widths and at
/// ones the weight panels do not divide (40 gate columns, a 38-column
/// interface, 3 outputs), five lanes (a group of four and a lone lane)
/// step ragged streams under masks against one sequential reference per
/// lane. Outputs and read rows agree bit for bit; an ended lane outputs
/// zeros and holds its read row.
fn assert_lanes_match_the_reference(rows: &[EngineSpec]) {
    let awkward = DncParams::new(12, 5, 2).with_hidden(10).with_io(7, 3);
    let lens = [6usize, 2, 5, 3, 6];
    for p in [params(), awkward] {
        let mut streams = lane_streams(lens.len(), 6, p.input_size);
        for (stream, &len) in streams.iter_mut().zip(&lens) {
            stream.truncate(len);
        }
        for &spec in rows {
            let label = format!(
                "{} skim={} pla={} N={}",
                spec.label(),
                spec.skim.fraction(),
                spec.approx_softmax,
                p.memory_size
            );
            let mut engine =
                EngineBuilder::new(p).with_spec(spec).lanes(lens.len()).seed(SEED).build();
            let mut refs: Vec<_> =
                lens.iter().map(|_| reference::Dnc::new(p, spec, SEED)).collect();
            for t in 0..6 {
                let mask = LaneMask::for_step(&lens, t);
                let block = Matrix::from_fn(lens.len(), p.input_size, |b, i| {
                    streams[b].get(t).map_or(0.0, |x| x[i])
                });
                let y = engine.step_batch_masked(&block, &mask);
                for (b, oracle) in refs.iter_mut().enumerate() {
                    if mask.is_active(b) {
                        let want = oracle.step(&streams[b][t]);
                        assert_eq!(bits(y.row(b)), bits(&want), "{label} lane {b} t {t}");
                    } else {
                        assert!(y.row(b).iter().all(|&v| v == 0.0), "{label} ended lane {b} t {t}");
                    }
                    let read = engine.last_read_row(b);
                    assert_eq!(bits(read), bits(oracle.last_read()), "{label} lane {b} t {t}");
                }
            }
        }
    }
}

/// Skimming and the PLA softmax on top of a topology.
fn with_features(spec: EngineSpec) -> EngineSpec {
    EngineSpec { approx_softmax: true, ..spec.with_skim(SkimRate::new(0.2)) }
}

/// The table's monolithic rows: the centralized DNC, exact and with the
/// §5.2 features.
#[test]
fn monolithic_f32_build_is_bit_identical_to_legacy_dnc() {
    assert_lanes_match_the_reference(&[
        EngineSpec::monolithic(),
        with_features(EngineSpec::monolithic()),
    ]);
}

/// The table's sharded rows: DNC-D over 1, 2, 3 and 4 tiles, and 3 tiles
/// with the §5.2 features.
#[test]
fn sharded_f32_build_is_bit_identical_to_legacy_dncd() {
    assert_lanes_match_the_reference(&[
        EngineSpec::sharded(1),
        EngineSpec::sharded(2),
        EngineSpec::sharded(3),
        EngineSpec::sharded(4),
        with_features(EngineSpec::sharded(3)),
    ]);
}

/// `calibrated` fits α on the same pair the reference runs — the exact
/// centralized model's reads as the target, the sharded model's (with
/// the spec's skimming and softmax) as the regressors — so its merge is
/// `ReadMerge::calibrate` over the reference's samples, bit for bit.
#[test]
fn calibrated_merge_is_the_reference_pairs_fit_bit_for_bit() {
    let inputs = lane_streams(1, 24, 5).remove(0);
    for tiles in [1usize, 2, 4] {
        for (skim, pla) in
            [(SkimRate::NONE, false), (SkimRate::new(0.2), false), (SkimRate::NONE, true)]
        {
            let spec =
                EngineSpec { approx_softmax: pla, ..EngineSpec::sharded(tiles).with_skim(skim) };
            let mut centralized = reference::Dnc::new(params(), EngineSpec::monolithic(), SEED);
            let mut sharded = reference::Dnc::new(params(), spec, SEED);
            let samples: Vec<_> = inputs
                .iter()
                .map(|x| {
                    centralized.step(x);
                    sharded.step(x);
                    (sharded.shard_reads().to_vec(), centralized.last_read().to_vec())
                })
                .collect();
            let want = builder(spec).merge(ReadMerge::calibrate(&samples, tiles));
            // `Debug` prints every field, each `f32` as its shortest
            // round-trip decimal: equal text is equal bits.
            let got = builder(spec).calibrated(&inputs);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{} pla={pla}", spec.label());
        }
    }
}

#[test]
fn deterministic_across_thread_counts() {
    for spec in specs() {
        let streams = lane_streams(8, STEPS, 5);
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(|| {
                let mut engine = builder(spec).lanes(8).build();
                (0..STEPS).map(|t| engine.step_batch(&block_at(&streams, t))).collect::<Vec<_>>()
            })
        };
        assert_eq!(run(1), run(4), "{}: thread count changed results", spec.label());
    }
}

#[test]
fn reset_restores_blank_lane_behaviour() {
    for spec in specs() {
        let streams = lane_streams(3, STEPS, 5);
        let mut engine = builder(spec).lanes(3).build();
        let first = engine.step_batch(&block_at(&streams, 0));
        for t in 1..STEPS {
            engine.step_batch(&block_at(&streams, t));
        }
        engine.reset();
        let again = engine.step_batch(&block_at(&streams, 0));
        assert_eq!(first, again, "{}: reset did not restore blank state", spec.label());
    }
}

#[test]
fn trait_surface_is_consistent_for_every_variant() {
    let p = params();
    for spec in specs() {
        // Builder engines default profiling off; opt in to count kernels.
        let mut engine = builder(spec).lanes(3).profiling(true).build();
        assert_eq!(engine.batch(), 3, "{}", spec.label());
        assert_eq!(engine.params(), &p, "{}", spec.label());
        engine.step_batch(&Matrix::zeros(3, 5));
        let read_width = p.read_heads * p.word_size;
        assert_eq!(engine.last_read_rows().shape(), (3, read_width), "{}", spec.label());
        assert_eq!(
            engine.last_features_rows().shape(),
            (3, p.hidden_size + read_width),
            "{}",
            spec.label()
        );
        // One soft read per head per memory unit per lane.
        assert_eq!(
            engine.profile().calls(hima_dnc::KernelId::MemoryRead),
            (3 * spec.tiles() * p.read_heads) as u64,
            "{}",
            spec.label()
        );
    }
}

#[test]
fn run_sequence_batch_matches_stepping() {
    for spec in specs() {
        let streams = lane_streams(3, STEPS, 5);
        let blocks: Vec<Matrix> = (0..STEPS).map(|t| block_at(&streams, t)).collect();
        let mut a = builder(spec).lanes(3).build();
        let seq = a.run_sequence_batch(&blocks);
        let mut b = builder(spec).lanes(3).build();
        for (x, want) in blocks.iter().zip(&seq) {
            assert_eq!(&b.step_batch(x), want, "{}", spec.label());
        }
    }
}

#[test]
fn quantized_engines_expose_representable_reads() {
    let q = QFormat::q16_16();
    for spec in [
        EngineSpec::monolithic().with_datapath(Datapath::Quantized(q)),
        EngineSpec::sharded(4).with_datapath(Datapath::Quantized(q)),
    ] {
        let streams = lane_streams(2, STEPS, 5);
        let mut engine = builder(spec).lanes(2).build();
        for t in 0..STEPS {
            engine.step_batch(&block_at(&streams, t));
        }
        // Monolithic reads come straight off the quantized unit; sharded
        // reads are an f32 weighted sum of representable shard reads, so
        // only the monolithic claim is exact representability.
        if spec.tiles() == 1 {
            let reads = engine.last_read_rows();
            for b in 0..2 {
                for &x in reads.row(b) {
                    assert!(q.is_representable(x), "{}: {x} not Q16.16", spec.label());
                }
            }
        }
        // Both datapaths must diverge from the exact f32 engine.
        let mut exact = builder(EngineSpec { datapath: Datapath::F32, ..spec }).lanes(2).build();
        for t in 0..STEPS {
            exact.step_batch(&block_at(&streams, t));
        }
        assert_ne!(
            engine.last_read_rows().row(0),
            exact.last_read_rows().row(0),
            "{}: quantization should be observable",
            spec.label()
        );
    }
}

#[test]
fn seed_determinism_and_divergence_through_the_builder() {
    for spec in specs() {
        let x = Matrix::filled(1, 5, 0.3);
        let mut a = builder(spec).build();
        let mut b = builder(spec).build();
        let y = a.step_batch(&x);
        assert_eq!(y, b.step_batch(&x), "{}", spec.label());
        let mut c = EngineBuilder::new(params()).with_spec(spec).seed(SEED + 1).build();
        assert_ne!(y, c.step_batch(&x), "{}", spec.label());
    }
}

#[test]
#[should_panic(expected = "B=1 convenience")]
fn step_convenience_rejects_multi_lane_engines() {
    let mut engine = builder(EngineSpec::monolithic()).lanes(2).build();
    engine.step(&[0.0; 5]);
}

// ---------------------------------------------------------------------
// Masked (ragged) stepping conformance at the engine level, on the ragged
// episode sets of hima-testkit. The workspace-level
// `tests/ragged_conformance.rs` extends this across the full topology ×
// datapath × B grid; here we pin the masking contract per spec on
// property-generated ragged lane sets.
// ---------------------------------------------------------------------

mod ragged {
    use super::*;
    use hima_tasks::{masked_step_block, Episode};
    use hima_tensor::LaneMask;
    use hima_testkit::cases::check;
    use hima_testkit::ragged_episodes;

    /// Task-token geometry: the episode generator emits TOKEN_WIDTH rows.
    fn token_params() -> DncParams {
        DncParams::new(16, 4, 2)
            .with_hidden(16)
            .with_io(hima_tasks::tasks::TOKEN_WIDTH, hima_tasks::tasks::TOKEN_WIDTH)
    }

    fn token_builder(spec: EngineSpec) -> EngineBuilder {
        EngineBuilder::new(token_params()).with_spec(spec).seed(SEED)
    }

    /// Drives a ragged episode set through one masked lane grid and
    /// through per-episode single-lane engines; asserts outputs and read
    /// vectors agree bit for bit at every live step, and that ended
    /// lanes hold (frozen read row, zero output row).
    fn assert_masked_matches_sequential(spec: EngineSpec, episodes: &[Episode]) {
        let lanes = episodes.len();
        let steps = episodes.iter().map(Episode::len).max().unwrap();
        let mut grid = token_builder(spec).lanes(lanes).build();
        let mut solo: Vec<_> = (0..lanes).map(|_| token_builder(spec).lanes(1).build()).collect();
        for t in 0..steps {
            let (block, mask) = masked_step_block(episodes, t);
            let y = grid.step_batch_masked(&block, &mask);
            let reads = grid.last_read_rows();
            for (b, lane) in solo.iter_mut().enumerate() {
                if mask.is_active(b) {
                    let want = lane.step(&episodes[b].inputs[t]);
                    assert_eq!(y.row(b), &want[..], "{} lane {b} t {t}", spec.label());
                }
                // Live or frozen, the read row equals the lane's own
                // engine at its last real step.
                assert_eq!(
                    reads.row(b),
                    lane.last_read_rows().row(0),
                    "{} lane {b} t {t}: read rows diverged",
                    spec.label()
                );
                if !mask.is_active(b) {
                    assert!(
                        y.row(b).iter().all(|&v| v == 0.0),
                        "{} lane {b} t {t}: ended lane must output zeros",
                        spec.label()
                    );
                }
            }
        }
    }

    #[test]
    fn masked_grid_matches_solo_engines_on_ragged_sets() {
        let name = "masked_grid_matches_solo_engines_on_ragged_sets";
        check(name, 6, |g| ragged_episodes(g, 2..=5, 2..=7), |episodes| {
            for spec in [
                EngineSpec::monolithic(),
                EngineSpec::sharded(4),
                EngineSpec::monolithic().with_datapath(Datapath::Quantized(QFormat::q16_16())),
            ] {
                assert_masked_matches_sequential(spec, &episodes);
            }
        });
    }

    #[test]
    fn tail_step_keeps_only_the_longest_lane_live() {
        // The tail-step case: by the last step every lane but the
        // longest has ended; the mask carries exactly one live lane and
        // the grid still matches that lane's solo engine.
        check("tail_step_keeps_only_the_longest_lane_live", 1, |g| ragged_episodes(g, 4..=4, 2..=9), |episodes| {
            let steps = episodes.iter().map(Episode::len).max().unwrap();
            let longest_lanes: Vec<usize> = episodes
                .iter()
                .enumerate()
                .filter_map(|(b, e)| (e.len() == steps).then_some(b))
                .collect();
            let (_, tail_mask) = masked_step_block(&episodes, steps - 1);
            assert_eq!(
                tail_mask.active_lanes().collect::<Vec<_>>(),
                longest_lanes,
                "only the longest lanes survive to the tail step"
            );
            assert_masked_matches_sequential(EngineSpec::sharded(2), &episodes);
        });
    }

    #[test]
    fn masked_thread_count_determinism() {
        check("masked_thread_count_determinism", 1, |g| ragged_episodes(g, 6..=6, 2..=8), |episodes| {
            let run = |threads: usize| {
                rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(|| {
                    let steps = episodes.iter().map(Episode::len).max().unwrap();
                    let mut grid = token_builder(EngineSpec::sharded(4)).lanes(6).build();
                    (0..steps)
                        .map(|t| {
                            let (block, mask) = masked_step_block(&episodes, t);
                            grid.step_batch_masked(&block, &mask)
                        })
                        .collect::<Vec<_>>()
                })
            };
            assert_eq!(run(1), run(4), "masked fan-out must not perturb results");
        });
    }

    #[test]
    fn interleaved_masks_freeze_and_resume_exactly() {
        // Masks are more general than suffix raggedness: a lane frozen
        // mid-episode must resume exactly where it left off.
        let width = token_params().input_size;
        let x =
            |t: usize| hima_tensor::Matrix::from_fn(2, width, |b, i| {
                (((b * 13 + t * 7 + i) as f32) * 0.21).sin()
            });
        let mut grid = token_builder(EngineSpec::monolithic()).lanes(2).build();
        let mut solo = token_builder(EngineSpec::monolithic()).lanes(1).build();
        // Lane 1 steps at t = 0 and 2 only; the solo engine steps on
        // exactly those inputs back to back.
        let schedule = [true, false, true];
        for (t, &lane1_active) in schedule.iter().enumerate() {
            let mask = LaneMask::from(vec![true, lane1_active]);
            let y = grid.step_batch_masked(&x(t), &mask);
            if lane1_active {
                let want = solo.step(x(t).row(1));
                assert_eq!(y.row(1), &want[..], "t {t}");
            }
        }
    }
}
