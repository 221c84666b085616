//! Golden output bits: a table of per-episode output digests the engine
//! must reproduce exactly.
//!
//! Every other suite compares one form of the step against another (a
//! batched lane against a solo engine, a kernel tier against the scalar
//! reference), so a change that moves *both* sides of such a pair — a
//! rewritten kernel body every path shares, a reordered usage update —
//! passes them all. This table does not move with the code: each digest
//! was recorded from the engine as it stood before the kernel rewrites it
//! guards, and an edit that is meant to be bit-exact must leave every row
//! as it is. An edit that changes the numerics on purpose re-records the
//! table and says so.
//!
//! The grid is datapath (`f32`, Q16.16) × topology (monolithic,
//! `sharded(4)`) × addressing (exact, usage skimming `K = 0.2` with the
//! PLA softmax), at the served geometry (`N = 128, W = 16, R = 2,
//! H = 64`; two ragged lanes, two episodes of a hundred steps each) and at
//! the paper's (`N = 1024, W = 64, R = 4, H = 256`; one lane, a few
//! steps). Each row also pins the `HLSS` encoding of lane 0 after its
//! last episode, which covers every state memory, not only the outputs.

use hima::dnc::allocation::SkimRate;
use hima::dnc::{Datapath, DncParams, EngineBuilder, EngineSpec};
use hima::tensor::{LaneMask, Matrix, QFormat};

/// FNV-1a over the bits of `xs`, continuing from `hash`.
fn fnv_f32(hash: u64, xs: &[f32]) -> u64 {
    xs.iter().fold(hash, |h, x| fnv_bytes(h, &x.to_bits().to_le_bytes()))
}

fn fnv_bytes(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One geometry the table covers: its parameters, lanes, episodes and
/// the steps of each episode.
struct Geometry {
    name: &'static str,
    params: DncParams,
    lanes: usize,
    episodes: usize,
    steps: usize,
}

fn geometries() -> [Geometry; 2] {
    [
        Geometry {
            name: "served",
            params: DncParams::new(128, 16, 2).with_hidden(64).with_io(8, 8),
            lanes: 2,
            episodes: 2,
            steps: 100,
        },
        Geometry {
            name: "paper",
            params: DncParams::new(1024, 64, 4).with_hidden(256).with_io(8, 8),
            lanes: 1,
            episodes: 1,
            steps: 3,
        },
    ]
}

/// The spec grid, labelled as the table's rows are.
fn specs() -> Vec<(String, EngineSpec, bool)> {
    let q16 = Datapath::Quantized(QFormat::q16_16());
    let mut out = Vec::new();
    for (datapath, dp) in [("f32", Datapath::F32), ("q16", q16)] {
        for (topology, spec) in [("mono", EngineSpec::monolithic()), ("shard4", EngineSpec::sharded(4))] {
            for (addressing, skim) in [("exact", false), ("skim", true)] {
                let mut spec = spec.with_datapath(dp);
                if skim {
                    spec = spec.with_skim(SkimRate::new(0.2));
                }
                out.push((format!("{datapath}/{topology}/{addressing}"), spec, skim));
            }
        }
    }
    out
}

/// The per-episode output digests of one (geometry, spec) pair, then the
/// digest of lane 0's encoded state after the last episode.
fn digests(g: &Geometry, spec: EngineSpec, approx: bool) -> (Vec<u64>, u64) {
    let mut engine = EngineBuilder::new(g.params)
        .with_spec(spec)
        .approx_softmax(approx)
        .lanes(g.lanes)
        .seed(42)
        .build();
    let input = g.params.input_size;
    let mut x = Matrix::zeros(g.lanes, input);
    let mut y = Matrix::zeros(g.lanes, g.params.output_size);
    let mut episodes = Vec::new();
    for e in 0..g.episodes {
        engine.reset();
        let mut hash = FNV_OFFSET;
        for t in 0..g.steps {
            for b in 0..g.lanes {
                for (i, v) in x.row_mut(b).iter_mut().enumerate() {
                    let phase = (e * 7919 + t * 131 + b * 37 + i * 11) as f32;
                    *v = (phase * 0.173).sin() * 1.5;
                }
            }
            // Lane 1 sits out every fifth step: the ragged path.
            let mask = LaneMask::from_fn(g.lanes, |b| b == 0 || t % 5 != 0);
            engine.step_batch_masked_into(&x, &mask, &mut y);
            hash = fnv_f32(hash, y.as_slice());
        }
        episodes.push(hash);
    }
    let state = fnv_bytes(FNV_OFFSET, &engine.export_lane(0).encode());
    (episodes, state)
}

/// `(geometry/datapath/topology/addressing, episode digests, state digest)`.
const GOLDEN: &[(&str, &[u64], u64)] = &[
    ("served/f32/mono/exact", &[0x2b09181f2e6feb23, 0x58fdd89b52c579ec], 0x3202cbde9a0f2108),
    ("served/f32/mono/skim", &[0x2a86c153a33c8624, 0x58dfe0e04ab51a77], 0x95c538548bbba371),
    ("served/f32/shard4/exact", &[0xa8095a6e18a7be91, 0xa1c1ecac66f9ce5b], 0xeca5c58e8f956ccf),
    ("served/f32/shard4/skim", &[0xeac3993102277dc1, 0x0671ef514bd23bce], 0xd8f9eaa7cfef87e5),
    ("served/q16/mono/exact", &[0xa8aee4aefaecf74d, 0xb3928c24909e188f], 0xc94d2a1e9a9e9dfd),
    ("served/q16/mono/skim", &[0x245fc41a39025c89, 0x62dc5280f9609b95], 0x455af8ea52ad2aae),
    ("served/q16/shard4/exact", &[0x2f03c9a0255f138a, 0xf30e9ceece9fd105], 0x0d3a638bcaceb4e6),
    ("served/q16/shard4/skim", &[0xa8a7d2626734d877, 0xe772f86fa46de84c], 0xbc4393a7f88536a1),
    ("paper/f32/mono/exact", &[0xbbcdb844a1af508c], 0xf12bd1f36e1fe80c),
    ("paper/f32/mono/skim", &[0x90c9257d23ee8e7e], 0x51008eca7f060695),
    ("paper/f32/shard4/exact", &[0xdb90f1715c800fd4], 0x2d694b21195d5e7b),
    ("paper/f32/shard4/skim", &[0x570d6b186f613c1e], 0x49298c8e2d70781c),
    ("paper/q16/mono/exact", &[0xc5573ab190ea256a], 0x548bfc7aece4ac44),
    ("paper/q16/mono/skim", &[0xfbfd90f3d9522442], 0x5ea9cacc5341fd5b),
    ("paper/q16/shard4/exact", &[0x2c40ddb49fd9ea0e], 0x92424c77d5e90e95),
    ("paper/q16/shard4/skim", &[0xb4bb599df18750df], 0xdb92692215f4ddb0),
];

/// Recomputes the rows of one geometry and compares them with the table.
fn check(geometry: &str) {
    let g = geometries().into_iter().find(|g| g.name == geometry).expect("a geometry");
    let mut got = Vec::new();
    for (label, spec, approx) in specs() {
        let (episodes, state) = digests(&g, spec, approx);
        got.push((format!("{geometry}/{label}"), episodes, state));
    }
    let table: String = got
        .iter()
        .map(|(label, episodes, state)| {
            let eps: Vec<String> = episodes.iter().map(|d| format!("{d:#018x}")).collect();
            format!("    (\"{label}\", &[{}], {state:#018x}),\n", eps.join(", "))
        })
        .collect();
    let want: Vec<_> =
        GOLDEN.iter().filter(|(label, ..)| label.split('/').next() == Some(geometry)).collect();
    assert_eq!(got.len(), want.len(), "the {geometry} rows as recorded now:\n{table}");
    for ((label, episodes, state), (want_label, want_episodes, want_state)) in got.iter().zip(want) {
        assert_eq!(label, want_label, "row order; the {geometry} rows as recorded now:\n{table}");
        assert_eq!(&episodes[..], *want_episodes, "{label}: episode output digests; now:\n{table}");
        assert_eq!(state, want_state, "{label}: lane 0 state encoding digest; now:\n{table}");
    }
}

#[test]
fn served_geometry_has_the_recorded_bits() {
    check("served");
}

#[test]
fn paper_geometry_has_the_recorded_bits() {
    check("paper");
}
