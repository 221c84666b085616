//! Property-based tests: every hardware sorter model must agree with an
//! independently written reference sort on arbitrary inputs.

use hima_sort::{
    argsort_by_comparator, BitonicNetwork, CentralizedMergeSorter, Keyed, MdsaSorter,
    ParallelMergeSorter, SortEngine, TwoStageSorter,
};
use proptest::prelude::*;

fn reference_sort(input: &[Keyed]) -> Vec<Keyed> {
    let mut v = input.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    v
}

fn keyed_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Keyed>> {
    prop::collection::vec(-1000.0f32..1000.0, len)
        .prop_map(|keys| keys.into_iter().zip(0..).collect())
}

proptest! {
    // The packed-key argsort against the comparator it replaced: random
    // keys of either sign, then keys drawn from a handful of levels (a
    // usage vector is mostly ties: blank slots, saturated slots).
    #[test]
    fn argsort_into_matches_the_comparator_reference(
        random in prop::collection::vec(-1000.0f32..1000.0, 0..300),
        levels in prop::collection::vec(0usize..8, 0..300),
    ) {
        const LEVELS: [f32; 8] = [0.0, -0.0, 0.25, 0.5, 1.0, -1.0, f32::INFINITY, f32::NAN];
        let tied: Vec<f32> = levels.into_iter().map(|l| LEVELS[l]).collect();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for keys in [random, tied] {
            CentralizedMergeSorter.argsort_into(&keys, &mut got);
            argsort_by_comparator(&keys, &mut want);
            prop_assert_eq!(&got, &want);
        }
    }

    #[test]
    fn centralized_merge_matches_reference(input in keyed_vec(0..200)) {
        prop_assert_eq!(CentralizedMergeSorter.sort_pairs(&input), reference_sort(&input));
    }

    #[test]
    fn bitonic_matches_reference(input in keyed_vec(1..64)) {
        let net = BitonicNetwork::new(input.len());
        prop_assert_eq!(net.sort_pairs(&input), reference_sort(&input));
    }

    #[test]
    fn mdsa_matches_reference(input in keyed_vec(1..200)) {
        let mdsa = MdsaSorter::for_len(input.len());
        prop_assert_eq!(mdsa.sort_pairs(&input), reference_sort(&input));
    }

    #[test]
    fn pms_merge_matches_reference(
        a in keyed_vec(0..50),
        b in keyed_vec(0..50),
        c in keyed_vec(0..50),
    ) {
        let runs = vec![reference_sort(&a), reference_sort(&b), reference_sort(&c)];
        let all: Vec<Keyed> = runs.iter().flatten().copied().collect();
        let (merged, _) = ParallelMergeSorter::new(3).merge(&runs);
        prop_assert_eq!(merged, reference_sort(&all));
    }

    #[test]
    fn two_stage_matches_reference(keys in prop::collection::vec(-100.0f32..100.0, 1..256), tiles in 1usize..8) {
        let input: Vec<Keyed> = keys.into_iter().zip(0..).collect();
        let sorter = TwoStageSorter::new(tiles, input.len());
        prop_assert_eq!(sorter.sort_pairs(&input), reference_sort(&input));
    }

    #[test]
    fn two_stage_argsort_is_permutation(keys in prop::collection::vec(0.0f32..1.0, 1..128)) {
        let sorter = TwoStageSorter::new(4.min(keys.len()), keys.len());
        let idx = sorter.argsort(&keys);
        let mut seen = vec![false; keys.len()];
        for &i in &idx {
            prop_assert!(!seen[i], "duplicate index {}", i);
            seen[i] = true;
        }
        for w in idx.windows(2) {
            prop_assert!(keys[w[0]] <= keys[w[1]]);
        }
    }

    #[test]
    fn two_stage_never_slower_than_centralized_at_scale(
        tiles in 2usize..32,
        log_n in 8u32..12,
    ) {
        let n = 1usize << log_n;
        let two = TwoStageSorter::new(tiles, n).latency_cycles(n);
        let central = CentralizedMergeSorter.latency_cycles(n);
        prop_assert!(two < central, "two-stage {} !< centralized {}", two, central);
    }

    #[test]
    fn bitonic_latency_is_stage_count(width in 1usize..64) {
        let net = BitonicNetwork::new(width);
        prop_assert_eq!(net.latency_cycles(width), net.stages() as u64);
    }
}
