//! Traffic-pattern generators for the DNC primitives (Table 1 / §4.1).
//!
//! Each generator returns the message list a primitive injects; messages may
//! depend on earlier messages (ring accumulation is a sequential chain).
//! [`TrafficPattern::recommended_mode`] gives the HiMA-NoC mode the paper
//! matches to the pattern.

use crate::routing::Mode;
use crate::topology::{NodeId, TopologyGraph};

/// One NoC message: `flits` words from `src` to `dst`, optionally only
/// injectable after another message completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Source tile.
    pub src: NodeId,
    /// Destination tile.
    pub dst: NodeId,
    /// Payload size in flits (32-bit words).
    pub flits: u64,
    /// Index (into the pattern's message list) of a message that must
    /// complete before this one can be injected.
    pub depends_on: Option<usize>,
}

impl Message {
    /// An immediately injectable message.
    pub fn new(src: NodeId, dst: NodeId, flits: u64) -> Self {
        Self { src, dst, flits, depends_on: None }
    }

    /// A message injected only after message `dep` completes.
    pub fn after(src: NodeId, dst: NodeId, flits: u64, dep: usize) -> Self {
        Self { src, dst, flits, depends_on: Some(dep) }
    }
}

/// The DNC-primitive traffic patterns of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficPattern {
    /// CT sends to every PT (interface-vector distribution).
    Broadcast,
    /// Every PT sends to CT (read-vector collection, sorted-run upload).
    Collect,
    /// PT → next PT accumulation chain (partial sums, inner products).
    RingAccumulate,
    /// Tile (i,j) sends its submatrix to tile (j,i) (matrix transpose).
    Transpose,
    /// Every PT sends to every other PT (mat-vec multiply, outer product).
    AllToAll,
}

impl TrafficPattern {
    /// All patterns.
    pub const ALL: [TrafficPattern; 5] = [
        TrafficPattern::Broadcast,
        TrafficPattern::Collect,
        TrafficPattern::RingAccumulate,
        TrafficPattern::Transpose,
        TrafficPattern::AllToAll,
    ];

    /// The HiMA-NoC mode the paper pairs with this pattern (Fig. 5(c)).
    pub fn recommended_mode(self) -> Mode {
        match self {
            TrafficPattern::Broadcast | TrafficPattern::Collect => Mode::Star,
            TrafficPattern::RingAccumulate => Mode::Ring,
            TrafficPattern::Transpose => Mode::Diagonal,
            TrafficPattern::AllToAll => Mode::Full,
        }
    }

    /// Generates the message list for this pattern on `graph` with
    /// per-message payload `flits`.
    pub fn messages(self, graph: &TopologyGraph, flits: u64) -> Vec<Message> {
        let ct = graph.ct();
        let pts = graph.pts();
        match self {
            TrafficPattern::Broadcast => {
                pts.iter().map(|&pt| Message::new(ct, pt, flits)).collect()
            }
            TrafficPattern::Collect => {
                pts.iter().map(|&pt| Message::new(pt, ct, flits)).collect()
            }
            TrafficPattern::RingAccumulate => {
                // Sequential chain PT_0 -> PT_1 -> ... -> PT_{n-1} -> CT,
                // ordered along the grid snake on mesh fabrics so each hop
                // is a ring-mode neighbour (placement order elsewhere).
                let chain = snake_order(graph);
                let mut msgs = Vec::with_capacity(chain.len());
                for i in 0..chain.len() {
                    let dst = if i + 1 < chain.len() { chain[i + 1] } else { ct };
                    let msg = if i == 0 {
                        Message::new(chain[i], dst, flits)
                    } else {
                        Message::after(chain[i], dst, flits, i - 1)
                    };
                    msgs.push(msg);
                }
                msgs
            }
            TrafficPattern::Transpose => transpose_messages(graph, flits),
            TrafficPattern::AllToAll => {
                let mut msgs = Vec::new();
                for &a in pts {
                    for &b in pts {
                        if a != b {
                            msgs.push(Message::new(a, b, flits));
                        }
                    }
                }
                msgs
            }
        }
    }
}

/// PTs in boustrophedon (snake) order over the grid, or placement order on
/// non-grid fabrics — the ordering accumulation chains follow.
pub fn snake_order(graph: &TopologyGraph) -> Vec<NodeId> {
    let mut pts = graph.pts().to_vec();
    if graph.grid_side() > 0 {
        let side = graph.grid_side();
        pts.sort_by_key(|&pt| {
            let (r, c) = graph.position(pt).expect("grid tiles have positions");
            let col = if r % 2 == 0 { c } else { side - 1 - c };
            (r, col)
        });
    }
    pts
}

/// Transpose partners: on grid fabrics, tile at `(r,c)` pairs with the tile
/// at `(c,r)`; on tree fabrics PTs are arranged on a virtual √N grid by
/// index. Tiles on the diagonal (or with no instantiated partner) send
/// nothing.
fn transpose_messages(graph: &TopologyGraph, flits: u64) -> Vec<Message> {
    let pts = graph.pts();
    let mut msgs = Vec::new();
    if graph.grid_side() > 0 {
        let find = |r: usize, c: usize| {
            pts.iter().copied().find(|&p| graph.position(p) == Some((r, c)))
        };
        for &pt in pts {
            let (r, c) = graph.position(pt).expect("grid tiles have positions");
            if r == c {
                continue;
            }
            if let Some(partner) = find(c, r) {
                msgs.push(Message::new(pt, partner, flits));
            }
        }
    } else {
        let side = (pts.len() as f64).sqrt().ceil() as usize;
        for (i, &pt) in pts.iter().enumerate() {
            let (r, c) = (i / side, i % side);
            if r == c {
                continue;
            }
            let j = c * side + r;
            if let Some(&partner) = pts.get(j) {
                msgs.push(Message::new(pt, partner, flits));
            }
        }
    }
    msgs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn broadcast_reaches_every_pt() {
        let g = TopologyGraph::build(Topology::Hima, 16);
        let msgs = TrafficPattern::Broadcast.messages(&g, 4);
        assert_eq!(msgs.len(), 16);
        assert!(msgs.iter().all(|m| m.src == g.ct()));
        let dsts: std::collections::BTreeSet<_> = msgs.iter().map(|m| m.dst).collect();
        assert_eq!(dsts.len(), 16);
    }

    #[test]
    fn collect_mirrors_broadcast() {
        let g = TopologyGraph::build(Topology::Star, 8);
        let msgs = TrafficPattern::Collect.messages(&g, 2);
        assert_eq!(msgs.len(), 8);
        assert!(msgs.iter().all(|m| m.dst == g.ct()));
    }

    #[test]
    fn ring_chain_is_sequential() {
        let g = TopologyGraph::build(Topology::Hima, 8);
        let msgs = TrafficPattern::RingAccumulate.messages(&g, 4);
        assert_eq!(msgs.len(), 8);
        assert_eq!(msgs[0].depends_on, None);
        for (i, m) in msgs.iter().enumerate().skip(1) {
            assert_eq!(m.depends_on, Some(i - 1));
        }
        assert_eq!(msgs.last().unwrap().dst, g.ct(), "chain terminates at CT");
    }

    #[test]
    fn transpose_pairs_are_symmetric_on_grid() {
        let g = TopologyGraph::build(Topology::Hima, 24); // full 5x5
        let msgs = TrafficPattern::Transpose.messages(&g, 4);
        // Every message's reverse is also present.
        for m in &msgs {
            assert!(
                msgs.iter().any(|n| n.src == m.dst && n.dst == m.src),
                "transpose must be symmetric"
            );
        }
        // No diagonal tiles appear.
        for m in &msgs {
            let (r, c) = g.position(m.src).unwrap();
            assert_ne!(r, c);
        }
    }

    #[test]
    fn transpose_on_tree_uses_virtual_grid() {
        let g = TopologyGraph::build(Topology::HTree, 16);
        let msgs = TrafficPattern::Transpose.messages(&g, 4);
        assert!(!msgs.is_empty());
        for m in &msgs {
            assert!(msgs.iter().any(|n| n.src == m.dst && n.dst == m.src));
        }
    }

    #[test]
    fn all_to_all_counts() {
        let g = TopologyGraph::build(Topology::Mesh, 6);
        let msgs = TrafficPattern::AllToAll.messages(&g, 1);
        assert_eq!(msgs.len(), 6 * 5);
    }

    #[test]
    fn recommended_modes_match_paper() {
        assert_eq!(TrafficPattern::Broadcast.recommended_mode(), Mode::Star);
        assert_eq!(TrafficPattern::RingAccumulate.recommended_mode(), Mode::Ring);
        assert_eq!(TrafficPattern::Transpose.recommended_mode(), Mode::Diagonal);
        assert_eq!(TrafficPattern::AllToAll.recommended_mode(), Mode::Full);
    }
}
