//! Fig. 5(d): Speedup scalability of the multi-mode HiMA-NoC.
//!
//! Sweeps PT counts for DNC mapped onto the five fabrics (all with the
//! best partitions and two-stage sort, so topology is the only variable)
//! plus DNC-D on HiMA, printing normalized speedups. The paper's
//! qualitative result: the fixed fabrics saturate beyond ~8 tiles, HiMA
//! keeps scaling, and DNC-D is near-ideal.

use crate::header;
use hima::engine::report::scalability_sweep;
use hima::prelude::*;

pub fn run() {
    header("Fig. 5(d): speedup vs PT count (normalized to 1 tile per design)");

    let tiles = [1usize, 2, 4, 8, 16, 32, 48, 64];
    print!("{:<12}", "fabric");
    for nt in tiles {
        print!(" {:>7}", nt);
    }
    println!();

    for topo in Topology::ALL {
        let series =
            scalability_sweep(&tiles, move |nt| EngineConfig::hima_dnc(nt).with_topology(topo));
        print!("{:<12}", format!("{}, DNC", topo.label()));
        for p in &series {
            print!(" {:>6.1}x", p.speedup);
        }
        println!();
    }

    let dncd = scalability_sweep(&tiles, EngineConfig::hima_dncd);
    print!("{:<12}", "HiMA, DNC-D");
    for p in &dncd {
        print!(" {:>6.1}x", p.speedup);
    }
    println!();

    print!("{:<12}", "Ideal");
    for nt in tiles {
        print!(" {:>6.1}x", nt as f64);
    }
    println!();

    println!("\nPaper: H-tree and binary-tree saturate beyond 8 tiles; mesh and star");
    println!("saturate slightly later; HiMA-NoC scales further, and DNC-D tracks the");
    println!("ideal curve closely (Fig. 5(d)).");

    header("Worst-case inter-tile hops (the Fig. 5(a)-(c) labels)");
    for (pts, label) in [(16usize, "16 PTs"), (24, "24 PTs (5x5 grid)")] {
        print!("{label:<22}");
        for topo in Topology::ALL {
            let g = TopologyGraph::build(topo, pts);
            print!(" {}={}", topo.label(), g.worst_case_hops());
        }
        println!();
    }
    println!("Paper: H-tree 8 hops, binary tree 8 hops, HiMA 4 hops on the 5x5 fabric.");
}
