//! Fig. 6(c)/(d): inter-tile traffic vs memory partition.
//!
//! Sweeps the submatrix partition `N_t^h × N_t^w` for the memory-read
//! kernel on the external memory (Eq. 2, Fig. 6(c)) and the
//! forward-backward kernel on the linkage memory (Eq. 3, Fig. 6(d)),
//! for the paper's tile counts.

use crate::header;
use hima::mem::optimizer::{
    best_external_partition, best_linkage_partition, forward_backward_sweep, memory_read_sweep,
};
use hima::mem::traffic::content_weighting_transfers;
use hima::prelude::*;

pub fn run() {
    header("Fig. 6(c): memory-read kernel traffic vs external-memory partition (N x W = 1024 x 64)");
    println!("{:<8} columns = log2(N_t^w): 0 (row-wise) ... log2(N_t) (column-wise)", "");
    for nt in [4usize, 16, 32, 48, 64] {
        let sweep = memory_read_sweep(1024, 64, nt);
        let min = sweep.iter().map(|(_, t)| *t).min().unwrap().max(1);
        print!("N_t={nt:<4}");
        for (p, t) in &sweep {
            print!("  {}:{:.1}x", p, *t as f64 / min as f64);
        }
        println!();
    }
    println!(
        "\nOptimizer external-memory choice at N_t=16: {} (paper: row-wise)",
        best_external_partition(1024, 64, 16)
    );

    header("Fig. 6(a): content-weighting traffic per partition (N = 1024, N_t = 4)");
    for p in Partition::factorizations(4) {
        println!(
            "  {:<5} -> {:>6} transfers (row-wise: 2(N_t-1)=6; col-wise: 2N(N_t-1)=6144)",
            p.to_string(),
            content_weighting_transfers(1024, p)
        );
    }

    header("Fig. 6(d): forward-backward traffic vs linkage partition (normalized)");
    for nt in [4usize, 16, 32, 48, 64] {
        let sweep = forward_backward_sweep(nt);
        let min = sweep.iter().map(|(_, t)| *t).fold(f64::INFINITY, f64::min);
        print!("N_t={nt:<4}");
        for (p, t) in &sweep {
            print!("  {}:{:.2}x", p, t / min);
        }
        println!();
    }
    println!(
        "\nOptimizer linkage choice at N_t=16: {} (paper: 4x4)",
        best_linkage_partition(16)
    );
    println!("Paper: both extremes are suboptimal; the minimum falls in the interior.");
}
