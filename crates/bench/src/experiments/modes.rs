//! Ablation: HiMA-NoC mode × traffic pattern.
//!
//! The multi-mode router's value proposition (§4.1) is that each DNC
//! primitive gets the mode that suits its traffic. This ablation runs
//! every pattern under every mode (where routable) on the analytic model
//! *and* cross-checks the recommended pairing on the cycle-driven VCT
//! simulator.

use crate::header;
use hima::noc::cycle_sim::CycleAccurateSim;
use hima::prelude::*;

pub fn run() {
    let graph = TopologyGraph::build(Topology::Hima, 24); // full 5x5 fabric
    let sim = NocSim::new(graph.clone());

    header("HiMA-NoC (5x5): completion cycles per (pattern, mode), 16-flit messages");
    print!("{:<16}", "pattern \\ mode");
    for mode in Mode::ALL {
        print!(" {:>10}", format!("{mode:?}"));
    }
    println!("   recommended");
    for pattern in TrafficPattern::ALL {
        let msgs = pattern.messages(sim.graph(), 16);
        print!("{:<16}", format!("{pattern:?}"));
        for mode in Mode::ALL {
            // Some (pattern, mode) pairs are unroutable (e.g. all-to-all
            // in diagonal mode crosses parity classes).
            let routable = msgs.iter().all(|m| sim.table(mode).path(m.src, m.dst).is_some());
            if routable {
                print!(" {:>10}", sim.run(mode, &msgs).completion_cycles);
            } else {
                print!(" {:>10}", "-");
            }
        }
        println!("   {:?}", pattern.recommended_mode());
    }

    header("Recommended-mode check: paper pairing vs best routable mode");
    for pattern in TrafficPattern::ALL {
        let msgs = pattern.messages(sim.graph(), 16);
        let best = Mode::ALL
            .iter()
            .filter(|&&mode| msgs.iter().all(|m| sim.table(mode).path(m.src, m.dst).is_some()))
            .map(|&mode| (mode, sim.run(mode, &msgs).completion_cycles))
            .min_by_key(|&(_, c)| c)
            .expect("full mode always routes");
        let rec = pattern.recommended_mode();
        let rec_cycles = sim.run(rec, &msgs).completion_cycles;
        let verdict = if rec_cycles <= (best.1 as f64 * 1.05) as u64 { "ok" } else { "suboptimal" };
        println!(
            "{:<16} recommended {:?} = {} cycles; best {:?} = {} cycles  [{verdict}]",
            format!("{pattern:?}"),
            rec,
            rec_cycles,
            best.0,
            best.1
        );
    }

    header("Cross-check on the cycle-driven VCT simulator (transpose)");
    let cycle = CycleAccurateSim::new(graph);
    let msgs = TrafficPattern::Transpose.messages(cycle.graph(), 16);
    let diag = cycle.run(Mode::Diagonal, &msgs).completion_cycles;
    let full = cycle.run(Mode::Full, &msgs).completion_cycles;
    println!("transpose: diagonal mode {diag} cycles, full mode {full} cycles");
    println!("(diagonal links carry transpose pairs directly; full mode competes with");
    println!("mesh traffic — the Fig. 5(c) motivation)");
}
