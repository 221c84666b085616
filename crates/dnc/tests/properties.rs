//! Property-based tests for the DNC model invariants.

use hima_dnc::allocation::{allocation_from_free_list_into, merge_write_weighting_into, SkimRate};
use hima_dnc::interface::InterfaceVector;
use hima_dnc::linkage::TemporalLinkage;
use hima_dnc::memory::{MemoryConfig, MemoryUnit};
use hima_dnc::usage::{retention_into, update_usage_inplace};
use hima_sort::{CentralizedMergeSorter, SortEngine};
use proptest::prelude::*;

fn unit_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(0.0f32..1.0, len)
}

/// The allocation weighting of `usage` through the merge sorter's free list.
fn allocation(usage: &[f32], skim: SkimRate) -> Vec<f32> {
    let mut w_a = vec![f32::NAN; usage.len()];
    allocation_from_free_list_into(usage, &CentralizedMergeSorter.argsort(usage), skim, &mut w_a);
    w_a
}

/// A random sub-normalized weighting (non-negative, sums to ≤ 1).
fn weighting(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(0.0f32..1.0, len).prop_map(|mut w| {
        let s: f32 = w.iter().sum();
        if s > 1.0 {
            for x in &mut w {
                *x /= s;
            }
        }
        w
    })
}

proptest! {
    #[test]
    fn retention_bounded(gates in unit_vec(1..4), n in 1usize..32, seed in 0u64..100) {
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
        prop_assert!(psi.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn usage_stays_in_unit_interval(u in unit_vec(1..32), seed in 0u64..100) {
        let n = u.len();
        let w: Vec<f32> = (0..n).map(|i| (((i * 13 + seed as usize) % 7) as f32) / 7.0).collect();
        let psi: Vec<f32> = (0..n).map(|i| (((i * 5 + seed as usize) % 11) as f32) / 11.0).collect();
        let mut u = u;
        update_usage_inplace(&mut u, &w, &psi);
        prop_assert!(u.iter().all(|&x| (-1e-6..=1.0 + 1e-6).contains(&x)), "{:?}", u);
    }

    #[test]
    fn allocation_is_subnormalized_weighting(u in unit_vec(1..64)) {
        let w = allocation(&u, SkimRate::NONE);
        prop_assert!(w.iter().all(|&x| x >= 0.0));
        prop_assert!(w.iter().sum::<f32>() <= 1.0 + 1e-4);
    }

    #[test]
    fn skimmed_allocation_still_subnormalized(u in unit_vec(2..64), k in 0.0f32..0.9) {
        let w = allocation(&u, SkimRate::new(k));
        prop_assert!(w.iter().all(|&x| x >= 0.0));
        prop_assert!(w.iter().sum::<f32>() <= 1.0 + 1e-4);
    }

    #[test]
    fn write_merge_is_weighting(n in 1usize..32, gw in 0.0f32..1.0, ga in 0.0f32..1.0, seed in 0u64..50) {
        let a: Vec<f32> = {
            let u: Vec<f32> = (0..n).map(|i| (((i * 7 + seed as usize) % 13) as f32) / 13.0).collect();
            allocation(&u, SkimRate::NONE)
        };
        let mut c: Vec<f32> = (0..n).map(|i| (((i * 11 + seed as usize) % 17) as f32) + 0.1).collect();
        let s: f32 = c.iter().sum();
        for x in &mut c { *x /= s; }
        let mut w = vec![f32::NAN; n];
        merge_write_weighting_into(&a, &c, gw, ga, &mut w);
        prop_assert!(hima_tensor::vector::is_weighting(&w, 1e-4), "{:?}", w);
    }

    #[test]
    fn linkage_invariants_under_random_writes(n in 2usize..12, steps in 1usize..20, seed in 0u64..100) {
        let mut l = TemporalLinkage::new(n);
        for t in 0..steps {
            let mut w: Vec<f32> = (0..n)
                .map(|i| (((t * 31 + i * 7 + seed as usize) % 23) as f32) / 23.0)
                .collect();
            let s: f32 = w.iter().sum();
            if s > 1.0 { for x in &mut w { *x /= s; } }
            l.update(&w);
            prop_assert!(l.check_invariants(1e-4), "step {}", t);
        }
    }

    #[test]
    fn forward_backward_preserve_weighting_mass(n in 2usize..12, seed in 0u64..100) {
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
        prop_assert!(f.iter().sum::<f32>() <= 1.0 + 1e-4);
        prop_assert!(b.iter().sum::<f32>() <= 1.0 + 1e-4);
        prop_assert!(f.iter().all(|&x| x >= -1e-6));
        prop_assert!(b.iter().all(|&x| x >= -1e-6));
    }

    #[test]
    fn interface_parse_always_well_formed(raw in prop::collection::vec(-50.0f32..50.0, 24)) {
        let iv = InterfaceVector::parse(&raw, 4, 1);
        prop_assert!(iv.is_well_formed());
    }

    #[test]
    fn memory_unit_invariants_under_random_interfaces(seed in 0u64..30, steps in 1usize..15) {
        let mut mu = MemoryUnit::new(MemoryConfig::new(12, 4, 2));
        let len = 4 * 2 + 3 * 4 + 5 * 2 + 3;
        for t in 0..steps {
            let raw: Vec<f32> = (0..len)
                .map(|i| (((t * 131 + i * 71 + seed as usize * 17) % 200) as f32 / 20.0) - 5.0)
                .collect();
            let iv = InterfaceVector::parse(&raw, 4, 2);
            let out = mu.step(&iv);
            prop_assert!(out.read_vectors.iter().flatten().all(|x| x.is_finite()));
            prop_assert!(mu.check_invariants(1e-3), "step {}", t);
        }
    }

    #[test]
    fn write_weighting_mass_conserved_under_random_gates(w_raw in weighting(8), gw in 0.0f32..1.0) {
        // Memory write with weighting w then erase=1 should leave row i
        // scaled by (1 - w[i]); mass of write weighting bounded by gate.
        let scaled: Vec<f32> = w_raw.iter().map(|x| x * gw).collect();
        prop_assert!(scaled.iter().sum::<f32>() <= 1.0 + 1e-5);
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_lstm_equals_per_lane_steps(
        batch in prop::sample::select(vec![1usize, 3, 8]),
        seed in 0u64..100,
    ) {
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
                prop_assert!(
                    hima_tensor::all_close(h.row(b), &want, hima_tensor::EPSILON),
                    "lane {} hidden diverged at t {}", b, t
                );
            }
        }
    }
}
