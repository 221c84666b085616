//! Property-based tests: every hardware sorter model must agree with an
//! independently written reference sort on arbitrary inputs.

use hima_sort::{
    argsort_by_comparator, BitonicNetwork, CentralizedMergeSorter, Keyed, MdsaSorter,
    ParallelMergeSorter, SortEngine, TwoStageSorter,
};
use hima_testkit::cases::{check, Gen};

fn reference_sort(input: &[Keyed]) -> Vec<Keyed> {
    let mut v = input.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    v
}

fn keyed_vec(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<Keyed> {
    g.vec(len, |g| g.range(-1000.0f32..1000.0)).into_iter().zip(0..).collect()
}

// The packed-key argsort against the comparator it replaced: random
// keys of either sign, then keys drawn from a handful of levels (a
// usage vector is mostly ties: blank slots, saturated slots).
#[test]
fn argsort_into_matches_the_comparator_reference() {
    let draw = |g: &mut Gen| (g.vec(0..300, |g| g.range(-1000.0f32..1000.0)), g.vec(0..300, |g| g.range(0usize..8)));
    check("argsort_into_matches_the_comparator_reference", 64, draw, |(random, levels)| {
        const LEVELS: [f32; 8] = [0.0, -0.0, 0.25, 0.5, 1.0, -1.0, f32::INFINITY, f32::NAN];
        let tied: Vec<f32> = levels.into_iter().map(|l| LEVELS[l]).collect();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for keys in [random, tied] {
            CentralizedMergeSorter.argsort_into(&keys, &mut got);
            argsort_by_comparator(&keys, &mut want);
            assert_eq!(&got, &want);
        }
    });
}

#[test]
fn centralized_merge_matches_reference() {
    check("centralized_merge_matches_reference", 64, |g| keyed_vec(g, 0..200), |input| {
        assert_eq!(CentralizedMergeSorter.sort_pairs(&input), reference_sort(&input));
    });
}

#[test]
fn bitonic_matches_reference() {
    check("bitonic_matches_reference", 64, |g| keyed_vec(g, 1..64), |input| {
        let net = BitonicNetwork::new(input.len());
        assert_eq!(net.sort_pairs(&input), reference_sort(&input));
    });
}

#[test]
fn mdsa_matches_reference() {
    check("mdsa_matches_reference", 64, |g| keyed_vec(g, 1..200), |input| {
        let mdsa = MdsaSorter::for_len(input.len());
        assert_eq!(mdsa.sort_pairs(&input), reference_sort(&input));
    });
}

#[test]
fn pms_merge_matches_reference() {
    let draw = |g: &mut Gen| (keyed_vec(g, 0..50), keyed_vec(g, 0..50), keyed_vec(g, 0..50));
    check("pms_merge_matches_reference", 64, draw, |(a, b, c)| {
        let runs = vec![reference_sort(&a), reference_sort(&b), reference_sort(&c)];
        let all: Vec<Keyed> = runs.iter().flatten().copied().collect();
        let (merged, _) = ParallelMergeSorter::new(3).merge(&runs);
        assert_eq!(merged, reference_sort(&all));
    });
}

#[test]
fn two_stage_matches_reference() {
    let draw = |g: &mut Gen| (g.vec(1..256, |g| g.range(-100.0f32..100.0)), g.range(1usize..8));
    check("two_stage_matches_reference", 64, draw, |(keys, tiles)| {
        let input: Vec<Keyed> = keys.into_iter().zip(0..).collect();
        let sorter = TwoStageSorter::new(tiles, input.len());
        assert_eq!(sorter.sort_pairs(&input), reference_sort(&input));
    });
}

#[test]
fn two_stage_argsort_is_permutation() {
    check("two_stage_argsort_is_permutation", 64, |g| g.vec(1..128, |g| g.range(0.0f32..1.0)), |keys| {
        let sorter = TwoStageSorter::new(4.min(keys.len()), keys.len());
        let idx = sorter.argsort(&keys);
        let mut seen = vec![false; keys.len()];
        for &i in &idx {
            assert!(!seen[i], "duplicate index {}", i);
            seen[i] = true;
        }
        for w in idx.windows(2) {
            assert!(keys[w[0]] <= keys[w[1]]);
        }
    });
}

#[test]
fn two_stage_never_slower_than_centralized_at_scale() {
    let draw = |g: &mut Gen| (g.range(2usize..32), g.range(8u32..12));
    check("two_stage_never_slower_than_centralized_at_scale", 64, draw, |(tiles, log_n)| {
        let n = 1usize << log_n;
        let two = TwoStageSorter::new(tiles, n).latency_cycles(n);
        let central = CentralizedMergeSorter.latency_cycles(n);
        assert!(two < central, "two-stage {} !< centralized {}", two, central);
    });
}

#[test]
fn bitonic_latency_is_stage_count() {
    check("bitonic_latency_is_stage_count", 64, |g| g.range(1usize..64), |width| {
        let net = BitonicNetwork::new(width);
        assert_eq!(net.latency_cycles(width), net.stages() as u64);
    });
}
