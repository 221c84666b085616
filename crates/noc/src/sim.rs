//! Deterministic NoC contention model.
//!
//! Messages traverse their shortest-path route hop by hop under three
//! resource constraints:
//!
//! 1. **Link serialization** — each directed link carries one message's
//!    flits at a time.
//! 2. **Injection serialization** — a tile has one injection port, so a
//!    source emits messages back-to-back.
//! 3. **Router relay capacity** — an intermediate router can relay at most
//!    `min(degree, MAX_ROUTER_RADIX)` messages concurrently (a practical
//!    crossbar radix). This is what makes the star hub and the H-tree root
//!    the congestion points the paper describes: the star CT physically has
//!    `N_t` spokes but its router cannot switch unboundedly many transfers
//!    at once, and a tree router has radix 3.
//!
//! Uncongested hops cost one extra feed-through cycle (§6's "feed-through
//! single-cycle transfer").
//!
//! The model is message-granular rather than flit-granular: it reproduces
//! the *ordering* effects Fig. 5(d) depends on (tree-root saturation,
//! star-hub serialization, HiMA load spreading) while staying fast enough
//! to sweep topologies × tile counts × patterns.

use crate::routing::{Mode, RoutingTable};
use crate::topology::{NodeId, TopologyGraph};
use crate::traffic::{Message, TrafficPattern};
use std::collections::HashMap;

/// Result of simulating one traffic pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Cycle at which the last message arrived.
    pub completion_cycles: u64,
    /// Number of messages delivered.
    pub messages: usize,
    /// Sum of hop counts over all messages.
    pub total_hops: u64,
    /// Sum of `flits × hops` (the paper's "traffic amount").
    pub total_flit_hops: u64,
    /// Busy cycles of the most-loaded directed link.
    pub max_link_busy: u64,
}

/// Largest practical crossbar radix: routers relay at most this many
/// messages concurrently regardless of their physical degree. Matches the
/// 8-way multi-mode HiMA router of §6.
pub const MAX_ROUTER_RADIX: usize = 8;

/// NoC simulator bound to one topology instance.
#[derive(Debug, Clone)]
pub struct NocSim {
    graph: TopologyGraph,
    tables: HashMap<Mode, RoutingTable>,
}

impl NocSim {
    /// Creates a simulator and precomputes routing for all modes.
    pub fn new(graph: TopologyGraph) -> Self {
        let tables = Mode::ALL
            .iter()
            .map(|&m| (m, RoutingTable::build(&graph, m)))
            .collect();
        Self { graph, tables }
    }

    /// The underlying fabric.
    pub fn graph(&self) -> &TopologyGraph {
        &self.graph
    }

    /// Routing table for `mode`.
    pub fn table(&self, mode: Mode) -> &RoutingTable {
        &self.tables[&mode]
    }

    /// Simulates `messages` under `mode`, starting at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if a message is unroutable in this mode (the caller picked a
    /// mode whose edge mask disconnects the pair — a programming error in
    /// the kernel-to-mode mapping) or a dependency index is out of range.
    pub fn run(&self, mode: Mode, messages: &[Message]) -> SimReport {
        let table = &self.tables[&mode];
        let mut edge_free: HashMap<(NodeId, NodeId), u64> = HashMap::new();
        let mut source_free: HashMap<NodeId, u64> = HashMap::new();
        // Relay channels per node: min(degree, radix cap) parallel slots.
        let mut relay_free: HashMap<NodeId, Vec<u64>> = HashMap::new();
        let mut arrival = vec![0u64; messages.len()];

        let mut total_hops = 0u64;
        let mut total_flit_hops = 0u64;
        let mut edge_busy: HashMap<(NodeId, NodeId), u64> = HashMap::new();
        let mut completion = 0u64;

        for (idx, msg) in messages.iter().enumerate() {
            let ready = match msg.depends_on {
                Some(dep) => {
                    assert!(dep < idx, "dependency {dep} of message {idx} must precede it");
                    arrival[dep]
                }
                None => 0,
            };
            let path = table
                .path(msg.src, msg.dst)
                .unwrap_or_else(|| panic!("{:?} -> {:?} unroutable in {mode:?}", msg.src, msg.dst));
            let hops = (path.len() - 1) as u64;
            total_hops += hops;
            total_flit_hops += hops * msg.flits;

            if hops == 0 {
                arrival[idx] = ready;
                completion = completion.max(ready);
                continue;
            }

            // Injection port serialization at the source.
            let inject_at = ready.max(*source_free.get(&msg.src).unwrap_or(&0));
            let mut t = inject_at;
            for (h, w) in path.windows(2).enumerate() {
                let link = (w[0], w[1]);
                let mut start = t.max(*edge_free.get(&link).unwrap_or(&0));
                // Relay-capacity constraint at intermediate routers.
                if h > 0 {
                    let node = w[0];
                    let channels = relay_free.entry(node).or_insert_with(|| {
                        let slots = self.graph.neighbors(node).len().clamp(1, MAX_ROUTER_RADIX);
                        vec![0; slots]
                    });
                    let best = channels
                        .iter_mut()
                        .min_by_key(|c| **c)
                        .expect("at least one relay channel");
                    start = start.max(*best);
                    *best = start + msg.flits;
                }
                edge_free.insert(link, start + msg.flits);
                *edge_busy.entry(link).or_insert(0) += msg.flits;
                // Serialization + one feed-through cycle per hop.
                t = start + msg.flits + 1;
            }
            source_free.insert(msg.src, inject_at + msg.flits);
            arrival[idx] = t;
            completion = completion.max(t);
        }

        SimReport {
            completion_cycles: completion,
            messages: messages.len(),
            total_hops,
            total_flit_hops,
            max_link_busy: edge_busy.values().copied().max().unwrap_or(0),
        }
    }

    /// Simulates a named DNC pattern with `flits` per message, using the
    /// recommended mode on HiMA fabrics and full routing elsewhere.
    pub fn run_pattern(&self, pattern: TrafficPattern, flits: u64) -> SimReport {
        let mode = if self.graph.topology() == crate::topology::Topology::Hima {
            pattern.recommended_mode()
        } else {
            Mode::Full
        };
        let messages = pattern.messages(&self.graph, flits);
        self.run(mode, &messages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn sim(topo: Topology, pts: usize) -> NocSim {
        NocSim::new(TopologyGraph::build(topo, pts))
    }

    #[test]
    fn single_message_latency_is_serialization_plus_hops() {
        let s = sim(Topology::Star, 4);
        let g = s.graph();
        let msgs = [Message::new(g.ct(), g.pts()[0], 8)];
        let rep = s.run(Mode::Full, &msgs);
        // 1 hop: 8 flits serialization + 1 feed-through.
        assert_eq!(rep.completion_cycles, 9);
        assert_eq!(rep.total_hops, 1);
        assert_eq!(rep.total_flit_hops, 8);
    }

    #[test]
    fn broadcast_serializes_at_the_source() {
        let s = sim(Topology::Star, 8);
        let rep = s.run_pattern(TrafficPattern::Broadcast, 4);
        // 8 messages of 4 flits leave one injection port: ≥ 8*4 cycles.
        assert!(rep.completion_cycles >= 32, "{rep:?}");
    }

    #[test]
    fn htree_transpose_congests_root() {
        // Distant-pair traffic funnels through the tree root; HiMA's
        // diagonals carry it directly (the Fig. 5 argument).
        let ht = sim(Topology::HTree, 16).run_pattern(TrafficPattern::Transpose, 16);
        let hm = sim(Topology::Hima, 16).run_pattern(TrafficPattern::Transpose, 16);
        assert!(
            hm.completion_cycles < ht.completion_cycles,
            "HiMA {} !< H-tree {}",
            hm.completion_cycles,
            ht.completion_cycles
        );
        assert!(hm.max_link_busy <= ht.max_link_busy);
    }

    #[test]
    fn all_to_all_scales_worse_on_star_than_hima() {
        let star = sim(Topology::Star, 16).run_pattern(TrafficPattern::AllToAll, 4);
        let hima = sim(Topology::Hima, 16).run_pattern(TrafficPattern::AllToAll, 4);
        assert!(
            hima.completion_cycles < star.completion_cycles,
            "hima {} !< star {}",
            hima.completion_cycles,
            star.completion_cycles
        );
    }

    #[test]
    fn ring_chain_time_accumulates_sequentially() {
        let s = sim(Topology::Hima, 8);
        let rep = s.run_pattern(TrafficPattern::RingAccumulate, 4);
        // 8 chained messages, each ≥ flits+1 cycles.
        assert!(rep.completion_cycles >= 8 * 5, "{rep:?}");
    }

    #[test]
    fn dependencies_delay_injection() {
        let s = sim(Topology::Star, 2);
        let g = s.graph();
        let msgs = [
            Message::new(g.pts()[0], g.ct(), 10),
            Message::after(g.ct(), g.pts()[1], 10, 0),
        ];
        let rep = s.run(Mode::Full, &msgs);
        // Second message cannot start before cycle 11.
        assert!(rep.completion_cycles >= 22, "{rep:?}");
    }

    #[test]
    fn contention_on_shared_link_serializes() {
        let s = sim(Topology::Star, 3);
        let g = s.graph();
        // Two PTs send to the same PT: both final hops share the CT->PT
        // link.
        let msgs = [
            Message::new(g.pts()[0], g.pts()[2], 8),
            Message::new(g.pts()[1], g.pts()[2], 8),
        ];
        let rep = s.run(Mode::Full, &msgs);
        let solo = s.run(Mode::Full, &msgs[..1]);
        assert!(rep.completion_cycles >= solo.completion_cycles + 8);
    }

    #[test]
    fn empty_pattern_is_zero_cycles() {
        let s = sim(Topology::Mesh, 4);
        let rep = s.run(Mode::Full, &[]);
        assert_eq!(rep.completion_cycles, 0);
        assert_eq!(rep.total_hops, 0);
    }

    #[test]
    fn self_message_costs_nothing() {
        let s = sim(Topology::Mesh, 4);
        let g = s.graph();
        let rep = s.run(Mode::Full, &[Message::new(g.pts()[0], g.pts()[0], 100)]);
        assert_eq!(rep.completion_cycles, 0);
    }

    #[test]
    fn more_flits_take_longer() {
        let s = sim(Topology::Hima, 16);
        let small = s.run_pattern(TrafficPattern::AllToAll, 2);
        let large = s.run_pattern(TrafficPattern::AllToAll, 16);
        assert!(large.completion_cycles > small.completion_cycles);
    }

    #[test]
    fn report_mean_hops() {
        let s = sim(Topology::Star, 4);
        let rep = s.run_pattern(TrafficPattern::Broadcast, 1);
        assert_eq!(rep.total_hops, rep.messages as u64, "CT->PT is one hop on a star");
    }

    #[test]
    #[should_panic(expected = "unroutable")]
    fn wrong_mode_for_pattern_panics() {
        let s = sim(Topology::Hima, 24);
        let g = s.graph();
        // Diagonal mode cannot route between opposite-parity tiles.
        let even = g.pts().iter().copied().find(|&p| {
            let (r, c) = g.position(p).unwrap();
            (r + c) % 2 == 0
        }).unwrap();
        let odd = g.pts().iter().copied().find(|&p| {
            let (r, c) = g.position(p).unwrap();
            (r + c) % 2 == 1
        }).unwrap();
        s.run(Mode::Diagonal, &[Message::new(even, odd, 1)]);
    }
}
