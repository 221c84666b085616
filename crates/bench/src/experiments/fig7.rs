//! Fig. 7 / §4.3: the two-stage usage sort.
//!
//! Reproduces the worked example — `N = 1024`, `N_t = 4`, 16×16 MDSA per
//! PT, 4-input PMS at the CT — and sweeps tile counts and vector lengths.
//! Also verifies functionally that the hardware models sort correctly.

use crate::header;
use hima::prelude::*;

pub fn run() {
    header("Fig. 7 / §4.3: two-stage usage sort (N = 1024, N_t = 4)");
    let two = TwoStageSorter::new(4, 1024);
    let mdsa = two.local_sorter();
    let pms = two.global_merger();
    println!("stage 1 (per-PT MDSA, {}x{} RF, DPBS depth {}):", mdsa.p(), mdsa.p(), mdsa.dpbs().pipeline_depth());
    println!(
        "  {} phases x ({} + {}) = {} cycles   (paper: 6 x (16 + 5) = 126)",
        mdsa.modeled_phases(),
        mdsa.p(),
        mdsa.dpbs().pipeline_depth(),
        two.stage1_cycles()
    );
    println!("stage 2 ({}-input PMS, depth {}):", pms.ways(), pms.pipeline_depth());
    println!(
        "  n + D_PMS = {} + {} = {} cycles        (paper: 256 + 7 = 263)",
        two.local_len(),
        pms.pipeline_depth(),
        two.stage2_cycles()
    );
    println!(
        "total: {} cycles vs centralized N log2 N = {} cycles ({:.1}x reduction)",
        two.latency_cycles(1024),
        CentralizedMergeSorter.latency_cycles(1024),
        CentralizedMergeSorter.latency_cycles(1024) as f64 / two.latency_cycles(1024) as f64
    );

    header("Sweep: sort latency (cycles) vs N and N_t");
    print!("{:<10}", "N \\ N_t");
    for nt in [2usize, 4, 8, 16, 32] {
        print!(" {:>9}", nt);
    }
    println!(" {:>12}", "centralized");
    for log_n in [8u32, 9, 10, 11, 12] {
        let n = 1usize << log_n;
        print!("{:<10}", n);
        for nt in [2usize, 4, 8, 16, 32] {
            print!(" {:>9}", TwoStageSorter::new(nt, n).latency_cycles(n));
        }
        println!(" {:>12}", CentralizedMergeSorter.latency_cycles(n));
    }

    header("Functional check: hardware sorters vs reference sort");
    let usage: Vec<f32> = (0..1024).map(|i| ((i * 193 + 71) % 1024) as f32 / 1024.0).collect();
    let mut reference = Vec::new();
    hima::sort::argsort_by_comparator(&usage, &mut reference);
    for nt in [2usize, 4, 16] {
        let got = TwoStageSorter::new(nt, 1024).argsort(&usage);
        assert_eq!(got, reference, "two-stage sort with {nt} tiles disagrees");
        println!("two-stage (N_t = {nt:>2}) matches the reference permutation");
    }
    let got = CentralizedMergeSorter.argsort(&usage);
    assert_eq!(got, reference);
    println!("centralized merge sort matches the reference permutation");
}
