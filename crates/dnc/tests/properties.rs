//! Property-based tests for the DNC model invariants.

use hima_dnc::allocation::{allocation_from_free_list_into, merge_write_weighting_into, SkimRate};
use hima_dnc::interface::InterfaceVector;
use hima_dnc::linkage::TemporalLinkage;
use hima_dnc::memory::{MemoryConfig, MemoryUnit};
use hima_dnc::usage::{retention_into, update_usage_inplace};
use hima_sort::{CentralizedMergeSorter, SortEngine};
use hima_testkit::cases::{check, Gen};

fn unit_vec(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<f32> {
    g.vec(len, |g| g.range(0.0f32..1.0))
}

/// The allocation weighting of `usage` through the merge sorter's free list.
fn allocation(usage: &[f32], skim: SkimRate) -> Vec<f32> {
    let mut w_a = vec![f32::NAN; usage.len()];
    allocation_from_free_list_into(usage, &CentralizedMergeSorter.argsort(usage), skim, &mut w_a);
    w_a
}

/// A random sub-normalized weighting (non-negative, sums to ≤ 1).
fn weighting(g: &mut Gen, len: usize) -> Vec<f32> {
    let mut w = g.vec(len..=len, |g| g.range(0.0f32..1.0));
    let s: f32 = w.iter().sum();
    if s > 1.0 {
        for x in &mut w {
            *x /= s;
        }
    }
    w
}

#[test]
fn retention_bounded() {
    let draw = |g: &mut Gen| (unit_vec(g, 1..4), g.range(1usize..32), g.range(0u64..100));
    check("retention_bounded", 64, draw, |(gates, n, seed)| {
        let heads: Vec<Vec<f32>> = (0..gates.len())
            .map(|h| {
                let mut w: Vec<f32> = (0..n).map(|i| (((h * 31 + i * 17 + seed as usize) % 19) as f32) / 19.0).collect();
                let s: f32 = w.iter().sum();
                if s > 1.0 { for x in &mut w { *x /= s; } }
                w
            })
            .collect();
        let mut psi = vec![f32::NAN; n];
        retention_into(&gates, &hima_tensor::Matrix::from_rows(&heads), &mut psi);
        assert!(psi.iter().all(|&p| (0.0..=1.0).contains(&p)));
    });
}

#[test]
fn usage_stays_in_unit_interval() {
    check("usage_stays_in_unit_interval", 64, |g| (unit_vec(g, 1..32), g.range(0u64..100)), |(u, seed)| {
        let n = u.len();
        let w: Vec<f32> = (0..n).map(|i| (((i * 13 + seed as usize) % 7) as f32) / 7.0).collect();
        let psi: Vec<f32> = (0..n).map(|i| (((i * 5 + seed as usize) % 11) as f32) / 11.0).collect();
        let mut u = u;
        update_usage_inplace(&mut u, &w, &psi);
        assert!(u.iter().all(|&x| (-1e-6..=1.0 + 1e-6).contains(&x)), "{:?}", u);
    });
}

#[test]
fn allocation_is_subnormalized_weighting() {
    check("allocation_is_subnormalized_weighting", 64, |g| unit_vec(g, 1..64), |u| {
        let w = allocation(&u, SkimRate::NONE);
        assert!(w.iter().all(|&x| x >= 0.0));
        assert!(w.iter().sum::<f32>() <= 1.0 + 1e-4);
    });
}

#[test]
fn skimmed_allocation_still_subnormalized() {
    check("skimmed_allocation_still_subnormalized", 64, |g| (unit_vec(g, 2..64), g.range(0.0f32..0.9)), |(u, k)| {
        let w = allocation(&u, SkimRate::new(k));
        assert!(w.iter().all(|&x| x >= 0.0));
        assert!(w.iter().sum::<f32>() <= 1.0 + 1e-4);
    });
}

#[test]
fn write_merge_is_weighting() {
    let draw = |g: &mut Gen| (g.range(1usize..32), g.range(0.0f32..1.0), g.range(0.0f32..1.0), g.range(0u64..50));
    check("write_merge_is_weighting", 64, draw, |(n, gw, ga, seed)| {
        let a: Vec<f32> = {
            let u: Vec<f32> = (0..n).map(|i| (((i * 7 + seed as usize) % 13) as f32) / 13.0).collect();
            allocation(&u, SkimRate::NONE)
        };
        let mut c: Vec<f32> = (0..n).map(|i| (((i * 11 + seed as usize) % 17) as f32) + 0.1).collect();
        let s: f32 = c.iter().sum();
        for x in &mut c { *x /= s; }
        let mut w = vec![f32::NAN; n];
        merge_write_weighting_into(&a, &c, gw, ga, &mut w);
        assert!(hima_tensor::vector::is_weighting(&w, 1e-4), "{:?}", w);
    });
}

#[test]
fn linkage_invariants_under_random_writes() {
    let draw = |g: &mut Gen| (g.range(2usize..12), g.range(1usize..20), g.range(0u64..100));
    check("linkage_invariants_under_random_writes", 64, draw, |(n, steps, seed)| {
        let mut l = TemporalLinkage::new(n);
        for t in 0..steps {
            let mut w: Vec<f32> = (0..n)
                .map(|i| (((t * 31 + i * 7 + seed as usize) % 23) as f32) / 23.0)
                .collect();
            let s: f32 = w.iter().sum();
            if s > 1.0 { for x in &mut w { *x /= s; } }
            l.update(&w);
            assert!(l.check_invariants(1e-4), "step {}", t);
        }
    });
}

#[test]
fn forward_backward_preserve_weighting_mass() {
    check("forward_backward_preserve_weighting_mass", 64, |g| (g.range(2usize..12), g.range(0u64..100)), |(n, seed)| {
        let mut l = TemporalLinkage::new(n);
        for t in 0..6 {
            let mut w = vec![0.0; n];
            w[(t * 3 + seed as usize) % n] = 1.0;
            l.update(&w);
        }
        let mut r = vec![0.0; n];
        r[seed as usize % n] = 1.0;
        let (mut f, mut b) = (vec![f32::NAN; n], vec![f32::NAN; n]);
        l.forward_into(&r, &mut f);
        l.backward_into(&r, &mut b);
        // L rows/cols sum to <= 1, so forward/backward of a weighting stays
        // sub-normalized.
        assert!(f.iter().sum::<f32>() <= 1.0 + 1e-4);
        assert!(b.iter().sum::<f32>() <= 1.0 + 1e-4);
        assert!(f.iter().all(|&x| x >= -1e-6));
        assert!(b.iter().all(|&x| x >= -1e-6));
    });
}

#[test]
fn interface_parse_always_well_formed() {
    check("interface_parse_always_well_formed", 64, |g| g.vec(24..=24, |g| g.range(-50.0f32..50.0)), |raw| {
        let iv = InterfaceVector::parse(&raw, 4, 1);
        assert!(iv.is_well_formed());
    });
}

#[test]
fn memory_unit_invariants_under_random_interfaces() {
    let draw = |g: &mut Gen| (g.range(0u64..30), g.range(1usize..15));
    check("memory_unit_invariants_under_random_interfaces", 64, draw, |(seed, steps)| {
        let mut mu = MemoryUnit::new(MemoryConfig::new(12, 4, 2));
        let len = 4 * 2 + 3 * 4 + 5 * 2 + 3;
        for t in 0..steps {
            let raw: Vec<f32> = (0..len)
                .map(|i| (((t * 131 + i * 71 + seed as usize * 17) % 200) as f32 / 20.0) - 5.0)
                .collect();
            let iv = InterfaceVector::parse(&raw, 4, 2);
            let out = mu.step(&iv);
            assert!(out.read_vectors.iter().flatten().all(|x| x.is_finite()));
            assert!(mu.check_invariants(1e-3), "step {}", t);
        }
    });
}

#[test]
fn write_weighting_mass_conserved_under_random_gates() {
    let draw = |g: &mut Gen| (weighting(g, 8), g.range(0.0f32..1.0));
    check("write_weighting_mass_conserved_under_random_gates", 64, draw, |(w_raw, gw)| {
        // Memory write with weighting w then erase=1 should leave row i
        // scaled by (1 - w[i]); mass of write weighting bounded by gate.
        let scaled: Vec<f32> = w_raw.iter().map(|x| x * gw).collect();
        assert!(scaled.iter().sum::<f32>() <= 1.0 + 1e-5);
    });
}

// --- Batched-kernel equivalence -----------------------------------------
//
// Kernel-level property of the batched row-block LSTM. Whole-model
// equivalence of the batched vs sequential paths is covered across *every*
// topology × lanes × datapath combination by the engine conformance suite
// in `crates/dnc/tests/conformance.rs`.

/// Per-lane input streams with lane-, time- and element-dependent values.
fn lane_streams(batch: usize, steps: usize, width: usize, seed: u64) -> Vec<Vec<Vec<f32>>> {
    (0..batch)
        .map(|b| {
            (0..steps)
                .map(|t| {
                    (0..width)
                        .map(|i| {
                            (((b * 131 + t * 17 + i * 7) as f32 + seed as f32 * 0.37) * 0.13).sin()
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Stacks time step `t` of every lane stream into a `B × width` block.
fn block_at(streams: &[Vec<Vec<f32>>], t: usize) -> hima_tensor::Matrix {
    let rows: Vec<&[f32]> = streams.iter().map(|s| s[t].as_slice()).collect();
    hima_tensor::Matrix::from_rows(&rows)
}

#[test]
fn batch_lstm_equals_per_lane_steps() {
    check("batch_lstm_equals_per_lane_steps", 12, |g| (g.pick(&[1usize, 3, 8]), g.range(0u64..100)), |(batch, seed)| {
        let lstm = hima_dnc::lstm::Lstm::new(5, 12, seed);
        let packed = hima_dnc::PackedLstm::new(5, 12, seed);
        let streams = lane_streams(batch, 5, 5, seed);
        let mut batch_states = vec![hima_dnc::lstm::LstmState::zeros(12); batch];
        let mut lane_states = vec![hima_dnc::lstm::LstmState::zeros(12); batch];
        let mask = hima_dnc::LaneMask::full(batch);
        let mut scratch = hima_dnc::LstmScratch::sized(batch, 5, 12);
        let mut h = hima_tensor::Matrix::zeros(batch, 12);
        for t in 0..5 {
            packed.step_masked_into(&mut batch_states, &block_at(&streams, t), &mask, &mut scratch, &mut h);
            for (b, state) in lane_states.iter_mut().enumerate() {
                let want = lstm.step_with_state(state, &streams[b][t]);
                assert!(
                    hima_tensor::all_close(h.row(b), &want, hima_tensor::EPSILON),
                    "lane {} hidden diverged at t {}", b, t
                );
            }
        }
    });
}
