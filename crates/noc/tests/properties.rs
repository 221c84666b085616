//! Property-based tests for NoC routing and simulation.

use hima_noc::routing::{Mode, RoutingTable};
use hima_noc::sim::NocSim;
use hima_noc::topology::{NodeId, Topology, TopologyGraph};
use hima_noc::traffic::{Message, TrafficPattern};
use hima_testkit::cases::{check, Gen};

fn topo(g: &mut Gen) -> Topology {
    g.pick(&Topology::ALL)
}

#[test]
fn full_mode_paths_are_shortest() {
    check("full_mode_paths_are_shortest", 64, |g| (topo(g), g.range(1usize..20)), |(topo, n)| {
        let g = TopologyGraph::build(topo, n);
        let table = RoutingTable::build(&g, Mode::Full);
        // Cross-check path length against independent BFS distances.
        let dist = g.distances_from(g.ct(), |_| true);
        for &pt in g.pts() {
            let hops = table.hops(g.ct(), pt).expect("connected");
            assert_eq!(hops, dist[pt.0]);
        }
    });
}

#[test]
fn paths_are_simple() {
    let draw = |g: &mut Gen| (topo(g), g.range(2usize..20), g.range(0usize..20), g.range(0usize..20));
    check("paths_are_simple", 64, draw, |(topo, n, i, j)| {
        let g = TopologyGraph::build(topo, n);
        let table = RoutingTable::build(&g, Mode::Full);
        let a = g.pts()[i % n];
        let b = g.pts()[j % n];
        let path = table.path(a, b).expect("connected in full mode");
        let mut seen = std::collections::BTreeSet::new();
        for node in &path {
            assert!(seen.insert(node.0), "path revisits node {}", node.0);
        }
    });
}

#[test]
fn completion_bounded_below_by_ideal() {
    let draw = |g: &mut Gen| (topo(g), g.range(1usize..16), g.range(1u64..32));
    check("completion_bounded_below_by_ideal", 64, draw, |(topo, n, flits)| {
        let sim = NocSim::new(TopologyGraph::build(topo, n));
        let rep = sim.run_pattern(TrafficPattern::Broadcast, flits);
        // Completion can never beat one message's serialization latency.
        assert!(rep.completion_cycles > flits);
        // And never beats injecting all messages at the CT.
        assert!(rep.completion_cycles >= flits * n as u64);
    });
}

#[test]
fn more_messages_never_finish_sooner() {
    check("more_messages_never_finish_sooner", 64, |g| (g.range(2usize..12), g.range(1u64..16)), |(n, flits)| {
        let sim = NocSim::new(TopologyGraph::build(Topology::Hima, n));
        let g = sim.graph();
        let all: Vec<Message> = g.pts().iter().map(|&pt| Message::new(g.ct(), pt, flits)).collect();
        let some = &all[..all.len() / 2];
        let full = sim.run(Mode::Full, &all);
        let half = sim.run(Mode::Full, some);
        assert!(full.completion_cycles >= half.completion_cycles);
    });
}

#[test]
fn flit_hops_accounting_consistent() {
    let draw = |g: &mut Gen| (topo(g), g.range(1usize..12), g.range(1u64..8));
    check("flit_hops_accounting_consistent", 64, draw, |(topo, n, flits)| {
        let sim = NocSim::new(TopologyGraph::build(topo, n));
        let msgs = TrafficPattern::Collect.messages(sim.graph(), flits);
        let rep = sim.run(Mode::Full, &msgs);
        assert_eq!(rep.total_flit_hops, rep.total_hops * flits);
        assert_eq!(rep.messages, msgs.len());
    });
}

#[test]
fn hima_worst_hops_beat_mesh() {
    check("hima_worst_hops_beat_mesh", 64, |g| g.range(2usize..40), |n| {
        let hima = TopologyGraph::build(Topology::Hima, n).worst_case_hops();
        let mesh = TopologyGraph::build(Topology::Mesh, n).worst_case_hops();
        assert!(hima <= mesh, "hima {} > mesh {}", hima, mesh);
    });
}

#[test]
fn transpose_pattern_routable_in_diagonal_mode() {
    check("transpose_pattern_routable_in_diagonal_mode", 64, |g| g.range(1usize..30), |n| {
        let g = TopologyGraph::build(Topology::Hima, n);
        let sim = NocSim::new(g);
        // Must not panic: transpose partners always share diagonal parity.
        let rep = sim.run_pattern(TrafficPattern::Transpose, 4);
        let _ = rep.completion_cycles;
    });
}

#[test]
fn node_ids_in_paths_are_valid() {
    check("node_ids_in_paths_are_valid", 64, |g| (topo(g), g.range(1usize..16)), |(topo, n)| {
        let g = TopologyGraph::build(topo, n);
        let table = RoutingTable::build(&g, Mode::Full);
        for &pt in g.pts() {
            for node in table.path(NodeId(g.ct().0), pt).unwrap() {
                assert!(node.0 < g.node_count());
            }
        }
    });
}
