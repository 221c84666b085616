//! Shortest-path routing with the HiMA mode masks (§4.1, Fig. 5(c)).
//!
//! A [`RoutingTable`] holds BFS-shortest paths over the edges a [`Mode`]
//! enables. Fixed topologies always use [`Mode::Full`]; the HiMA fabric
//! reconfigures per primitive:
//!
//! | Mode     | Enabled links          | Serves                           |
//! |----------|------------------------|----------------------------------|
//! | Star     | all                    | CT broadcast/collect, sort       |
//! | Ring     | snake path over grid   | accumulations, inner products    |
//! | Diagonal | diagonal links only    | matrix transpose                 |
//! | Full     | all                    | mat-vec multiply, outer products |

use crate::topology::{Edge, EdgeKind, NodeId, Topology, TopologyGraph};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// HiMA-NoC router mode (Fig. 5(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// CT-centric traffic (broadcast, collect, global sort).
    Star,
    /// Neighbour-to-neighbour accumulation along the snake ring.
    Ring,
    /// Diagonal transfers for matrix transpose.
    Diagonal,
    /// Unrestricted routing for all-to-all patterns.
    Full,
}

impl Mode {
    /// All modes.
    pub const ALL: [Mode; 4] = [Mode::Star, Mode::Ring, Mode::Diagonal, Mode::Full];

    /// Whether `edge` is enabled in this mode on `graph`.
    ///
    /// On non-HiMA topologies every mode behaves like [`Mode::Full`] (fixed
    /// fabrics cannot reconfigure).
    pub fn allows(self, graph: &TopologyGraph, edge: &Edge) -> bool {
        if graph.topology() != Topology::Hima {
            return true;
        }
        match self {
            Mode::Star | Mode::Full => true,
            Mode::Diagonal => edge.kind == EdgeKind::Diagonal,
            Mode::Ring => is_snake_edge(graph, edge),
        }
    }
}

/// Ring mode enables the boustrophedon (snake) path over the grid: all
/// horizontal links, plus the vertical links at the alternating row ends.
fn is_snake_edge(graph: &TopologyGraph, edge: &Edge) -> bool {
    if edge.kind != EdgeKind::Mesh {
        return false;
    }
    let (Some((ra, ca)), Some((rb, cb))) = (graph.position(edge.a), graph.position(edge.b)) else {
        return false;
    };
    if ra == rb {
        // Horizontal link: always part of the snake.
        true
    } else {
        // Vertical link: part of the snake only at the turning column of
        // the upper row (right edge on even rows, left edge on odd rows).
        let upper = ra.min(rb);
        let side = graph.grid_side();
        debug_assert_eq!(ca, cb);
        if upper % 2 == 0 {
            ca == side - 1
        } else {
            ca == 0
        }
    }
}

/// Precomputed shortest-path routes for one (graph, mode) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingTable {
    mode: Mode,
    /// `next_hop[src][dst]` = neighbour of `src` on a shortest path to
    /// `dst`, or `None` when unreachable.
    next_hop: Vec<Vec<Option<NodeId>>>,
}

impl RoutingTable {
    /// Builds the table by running BFS from every node over the edges the
    /// mode enables.
    pub fn build(graph: &TopologyGraph, mode: Mode) -> Self {
        let n = graph.node_count();
        // parents[dst][v] = BFS parent of v in the tree rooted at dst, so
        // next_hop[src][dst] = parent of src when searching from dst.
        let mut next_hop = vec![vec![None; n]; n];
        for dst in 0..n {
            let dst = NodeId(dst);
            let mut parent: Vec<Option<NodeId>> = vec![None; n];
            let mut seen = vec![false; n];
            seen[dst.0] = true;
            let mut queue = VecDeque::from([dst]);
            while let Some(v) = queue.pop_front() {
                for &(next, edge_idx) in graph.neighbors(v) {
                    if !mode.allows(graph, &graph.edges()[edge_idx]) {
                        continue;
                    }
                    if !seen[next.0] {
                        seen[next.0] = true;
                        parent[next.0] = Some(v);
                        queue.push_back(next);
                    }
                }
            }
            for src in 0..n {
                if src != dst.0 {
                    next_hop[src][dst.0] = parent[src];
                }
            }
        }
        Self { mode, next_hop }
    }

    /// The node sequence from `src` to `dst` (inclusive), or `None` when
    /// the mode's edge mask disconnects the pair.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop[cur.0][dst.0]?;
            path.push(cur);
            if path.len() > self.next_hop.len() {
                unreachable!("routing loop from {src:?} to {dst:?}");
            }
        }
        Some(path)
    }

    /// Hop count from `src` to `dst`, or `None` when unreachable.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        self.path(src, dst).map(|p| p.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Topology, TopologyGraph};

    #[test]
    fn full_mode_routes_everywhere() {
        for topo in Topology::ALL {
            let g = TopologyGraph::build(topo, 8);
            let table = RoutingTable::build(&g, Mode::Full);
            for &pt in g.pts() {
                let hops = table.hops(g.ct(), pt).expect("CT must reach every PT");
                assert!(hops >= 1);
            }
        }
    }

    #[test]
    fn path_endpoints_and_adjacency() {
        let g = TopologyGraph::build(Topology::Hima, 16);
        let table = RoutingTable::build(&g, Mode::Full);
        let (a, b) = (g.pts()[0], g.pts()[15]);
        let path = table.path(a, b).unwrap();
        assert_eq!(*path.first().unwrap(), a);
        assert_eq!(*path.last().unwrap(), b);
        for w in path.windows(2) {
            assert!(
                g.neighbors(w[0]).iter().any(|&(n, _)| n == w[1]),
                "path uses a non-edge"
            );
        }
    }

    #[test]
    fn self_path_is_trivial() {
        let g = TopologyGraph::build(Topology::Mesh, 4);
        let table = RoutingTable::build(&g, Mode::Full);
        assert_eq!(table.path(g.ct(), g.ct()), Some(vec![g.ct()]));
        assert_eq!(table.hops(g.ct(), g.ct()), Some(0));
    }

    #[test]
    fn diagonal_mode_uses_only_diagonal_links() {
        let g = TopologyGraph::build(Topology::Hima, 24); // full 5x5 grid
        let table = RoutingTable::build(&g, Mode::Diagonal);
        // Find two PTs that are transpose partners: (r,c) and (c,r).
        let find = |r: usize, c: usize| {
            g.pts()
                .iter()
                .copied()
                .find(|&p| g.position(p) == Some((r, c)))
                .expect("full grid")
        };
        let src = find(0, 3);
        let dst = find(3, 0);
        let path = table.path(src, dst).expect("transpose pairs stay diagonal-connected");
        assert_eq!(path.len() - 1, 3, "|r-c| diagonal steps");
        for w in path.windows(2) {
            let (ra, ca) = g.position(w[0]).unwrap();
            let (rb, cb) = g.position(w[1]).unwrap();
            assert_eq!(ra.abs_diff(rb), 1);
            assert_eq!(ca.abs_diff(cb), 1);
        }
    }

    #[test]
    fn diagonal_mode_disconnects_opposite_parity() {
        let g = TopologyGraph::build(Topology::Hima, 24);
        let table = RoutingTable::build(&g, Mode::Diagonal);
        // (0,0) has r+c even; (0,1) odd: bishop-style parity separation.
        let even = g.pts().iter().copied().find(|&p| {
            let (r, c) = g.position(p).unwrap();
            (r + c) % 2 == 0
        }).unwrap();
        let odd = g.pts().iter().copied().find(|&p| {
            let (r, c) = g.position(p).unwrap();
            (r + c) % 2 == 1
        }).unwrap();
        assert_eq!(table.path(even, odd), None);
    }

    #[test]
    fn ring_mode_visits_tiles_in_snake_order() {
        let g = TopologyGraph::build(Topology::Hima, 8); // 3x3 grid
        let table = RoutingTable::build(&g, Mode::Ring);
        // Every tile pair must still be reachable along the snake.
        let mut tiles = vec![g.ct()];
        tiles.extend_from_slice(g.pts());
        for &a in &tiles {
            for &b in &tiles {
                assert!(table.path(a, b).is_some(), "snake must stay connected");
            }
        }
        // The snake path between the two ends traverses every tile:
        // (0,0) -> (0,2) -> (1,2) -> (1,0) -> (2,0) -> (2,2).
        let find = |r: usize, c: usize| {
            tiles.iter().copied().find(|&p| g.position(p) == Some((r, c))).unwrap()
        };
        let start = find(0, 0);
        let end = find(2, 2);
        let path = table.path(start, end).unwrap();
        assert_eq!(path.len(), 9, "snake spans all 9 tiles: {path:?}");
    }

    #[test]
    fn ring_mode_on_hima_is_longer_than_full_mode() {
        let g = TopologyGraph::build(Topology::Hima, 24);
        let ring = RoutingTable::build(&g, Mode::Ring);
        let full = RoutingTable::build(&g, Mode::Full);
        let (a, b) = (g.pts()[0], g.pts()[20]);
        assert!(ring.hops(a, b).unwrap() >= full.hops(a, b).unwrap());
    }

    #[test]
    fn modes_are_noops_on_fixed_topologies() {
        let g = TopologyGraph::build(Topology::HTree, 8);
        let full = RoutingTable::build(&g, Mode::Full);
        let diag = RoutingTable::build(&g, Mode::Diagonal);
        for &pt in g.pts() {
            assert_eq!(full.hops(g.ct(), pt), diag.hops(g.ct(), pt));
        }
    }
}
