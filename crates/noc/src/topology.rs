//! NoC topology graphs: the five fabrics compared in Fig. 5.
//!
//! Every graph contains one controller tile (CT) and `n_pts` processing
//! tiles (PTs); tree topologies add internal router nodes. Mesh-family
//! fabrics place tiles on a square grid with the CT at the center cell
//! (paper Fig. 9) and PTs filling the remaining cells row-major.

use std::collections::VecDeque;

/// Index of a node (tile or internal router) within a [`TopologyGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// The NoC fabrics evaluated by the paper (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// MANNA's H-tree: PTs at the leaves of a binary tree, CT at the root.
    HTree,
    /// MAERI/HERALD-style binary tree with extra links between adjacent
    /// sub-trees at each level.
    BinaryTree,
    /// 2-D mesh (4-neighbour grid).
    Mesh,
    /// Star: every PT connects directly to the CT.
    Star,
    /// HiMA-NoC: mesh plus diagonal links (8-neighbour grid).
    Hima,
}

impl Topology {
    /// All topologies in the paper's comparison order.
    pub const ALL: [Topology; 5] =
        [Topology::HTree, Topology::BinaryTree, Topology::Mesh, Topology::Star, Topology::Hima];

    /// Display name matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Topology::HTree => "H-Tree",
            Topology::BinaryTree => "Bi-Tree",
            Topology::Mesh => "Mesh",
            Topology::Star => "Star",
            Topology::Hima => "HiMA",
        }
    }
}

/// Kind of a node in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Controller tile (LSTM + global kernels).
    Controller,
    /// Processing tile (memory shard + compute).
    Processing,
    /// Internal tree router (no compute).
    Router,
}

/// Classification of an edge, used by the HiMA mode masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Horizontal/vertical mesh link.
    Mesh,
    /// Diagonal link (HiMA only).
    Diagonal,
    /// Tree link (parent-child) or star spoke.
    Trunk,
    /// Sibling link between adjacent sub-trees (binary tree only).
    Sibling,
}

/// An undirected link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Link classification.
    pub kind: EdgeKind,
}

/// A built NoC graph.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyGraph {
    topology: Topology,
    kinds: Vec<NodeKind>,
    edges: Vec<Edge>,
    adjacency: Vec<Vec<(NodeId, usize)>>,
    ct: NodeId,
    pts: Vec<NodeId>,
    /// Grid coordinates for mesh-family nodes (`None` for tree routers).
    positions: Vec<Option<(usize, usize)>>,
    grid_side: usize,
}

impl TopologyGraph {
    /// Builds a fabric with `n_pts` processing tiles plus one controller
    /// tile.
    ///
    /// # Panics
    ///
    /// Panics if `n_pts == 0`.
    pub fn build(topology: Topology, n_pts: usize) -> Self {
        assert!(n_pts > 0, "need at least one processing tile");
        match topology {
            Topology::HTree => Self::build_tree(topology, n_pts, false),
            Topology::BinaryTree => Self::build_tree(topology, n_pts, true),
            Topology::Star => Self::build_star(n_pts),
            Topology::Mesh => Self::build_grid(topology, n_pts, false),
            Topology::Hima => Self::build_grid(topology, n_pts, true),
        }
    }

    fn build_star(n_pts: usize) -> Self {
        let mut g = GraphBuilder::new(Topology::Star);
        let ct = g.add_node(NodeKind::Controller, None);
        for _ in 0..n_pts {
            let pt = g.add_node(NodeKind::Processing, None);
            g.add_edge(ct, pt, EdgeKind::Trunk);
        }
        g.finish(ct, 0)
    }

    /// Binary tree with PTs at the leaves. The CT sits at the root (MANNA's
    /// arrangement). `sibling_links` adds the MAERI-style interconnects
    /// between adjacent nodes at each tree level.
    fn build_tree(topology: Topology, n_pts: usize, sibling_links: bool) -> Self {
        let leaves = n_pts.next_power_of_two().max(2);
        let mut g = GraphBuilder::new(topology);

        // Level-order complete binary tree; level 0 is the root.
        let depth = leaves.trailing_zeros() as usize;
        let mut levels: Vec<Vec<NodeId>> = Vec::with_capacity(depth + 1);
        let root = g.add_node(NodeKind::Controller, None);
        levels.push(vec![root]);
        for level in 1..=depth {
            let width = 1 << level;
            let is_leaf_level = level == depth;
            let mut nodes = Vec::with_capacity(width);
            for i in 0..width {
                let kind = if is_leaf_level && i < n_pts {
                    NodeKind::Processing
                } else {
                    // Interior router, or a padded (unused) leaf slot.
                    NodeKind::Router
                };
                let node = g.add_node(kind, None);
                g.add_edge(levels[level - 1][i / 2], node, EdgeKind::Trunk);
                nodes.push(node);
            }
            if sibling_links {
                for w in nodes.windows(2) {
                    g.add_edge(w[0], w[1], EdgeKind::Sibling);
                }
            }
            levels.push(nodes);
        }
        g.finish(root, 0)
    }

    /// Square grid with the CT at the center cell and PTs filling the other
    /// cells row-major. `diagonals` adds the HiMA 8-neighbour links.
    fn build_grid(topology: Topology, n_pts: usize, diagonals: bool) -> Self {
        let side = ((n_pts + 1) as f64).sqrt().ceil() as usize;
        let center = (side / 2, side / 2);
        let mut g = GraphBuilder::new(topology);

        // Instantiate CT at the center and PTs at the n_pts cells closest
        // to it (keeps the fabric compact when the grid is not full).
        let mut cells: Vec<(usize, usize)> = (0..side)
            .flat_map(|r| (0..side).map(move |c| (r, c)))
            .collect();
        cells.sort_by_key(|&(r, c)| {
            let dr = r.abs_diff(center.0);
            let dc = c.abs_diff(center.1);
            (dr.max(dc), dr + dc, r, c)
        });

        let mut grid: Vec<Vec<Option<NodeId>>> = vec![vec![None; side]; side];
        let ct = g.add_node(NodeKind::Controller, Some(center));
        grid[center.0][center.1] = Some(ct);
        for &(r, c) in cells.iter().filter(|&&p| p != center).take(n_pts) {
            let pt = g.add_node(NodeKind::Processing, Some((r, c)));
            grid[r][c] = Some(pt);
        }

        for r in 0..side {
            for c in 0..side {
                let Some(node) = grid[r][c] else { continue };
                // East and south mesh links.
                if c + 1 < side {
                    if let Some(east) = grid[r][c + 1] {
                        g.add_edge(node, east, EdgeKind::Mesh);
                    }
                }
                if r + 1 < side {
                    if let Some(south) = grid[r + 1][c] {
                        g.add_edge(node, south, EdgeKind::Mesh);
                    }
                }
                if diagonals {
                    if r + 1 < side && c + 1 < side {
                        if let Some(se) = grid[r + 1][c + 1] {
                            g.add_edge(node, se, EdgeKind::Diagonal);
                        }
                    }
                    if r + 1 < side && c > 0 {
                        if let Some(sw) = grid[r + 1][c - 1] {
                            g.add_edge(node, sw, EdgeKind::Diagonal);
                        }
                    }
                }
            }
        }
        g.finish(ct, side)
    }

    /// Which topology this graph realizes.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Total node count (tiles + internal routers).
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// The controller tile.
    pub fn ct(&self) -> NodeId {
        self.ct
    }

    /// The processing tiles, in placement order.
    pub fn pts(&self) -> &[NodeId] {
        &self.pts
    }

    /// All undirected edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Neighbours of `node` with the connecting edge index.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, usize)] {
        &self.adjacency[node.0]
    }

    /// Grid coordinates for mesh-family nodes.
    pub fn position(&self, node: NodeId) -> Option<(usize, usize)> {
        self.positions[node.0]
    }

    /// Grid side length (0 for non-grid topologies).
    pub(crate) fn grid_side(&self) -> usize {
        self.grid_side
    }

    /// BFS hop distances from `src` over edges accepted by `mask`
    /// (`usize::MAX` marks unreachable nodes).
    pub fn distances_from(&self, src: NodeId, mask: impl Fn(&Edge) -> bool) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.node_count()];
        dist[src.0] = 0;
        let mut queue = VecDeque::from([src]);
        while let Some(n) = queue.pop_front() {
            for &(next, edge_idx) in &self.adjacency[n.0] {
                if !mask(&self.edges[edge_idx]) {
                    continue;
                }
                if dist[next.0] == usize::MAX {
                    dist[next.0] = dist[n.0] + 1;
                    queue.push_back(next);
                }
            }
        }
        dist
    }

    /// Worst-case hop count between any two tiles (CT or PT), with all
    /// edges enabled.
    pub fn worst_case_hops(&self) -> usize {
        let mut tiles = vec![self.ct];
        tiles.extend_from_slice(&self.pts);
        let mut worst = 0;
        for &src in &tiles {
            let dist = self.distances_from(src, |_| true);
            for &dst in &tiles {
                if dist[dst.0] != usize::MAX {
                    worst = worst.max(dist[dst.0]);
                }
            }
        }
        worst
    }
}

struct GraphBuilder {
    topology: Topology,
    kinds: Vec<NodeKind>,
    positions: Vec<Option<(usize, usize)>>,
    edges: Vec<Edge>,
    adjacency: Vec<Vec<(NodeId, usize)>>,
}

impl GraphBuilder {
    fn new(topology: Topology) -> Self {
        Self { topology, kinds: Vec::new(), positions: Vec::new(), edges: Vec::new(), adjacency: Vec::new() }
    }

    fn add_node(&mut self, kind: NodeKind, pos: Option<(usize, usize)>) -> NodeId {
        let id = NodeId(self.kinds.len());
        self.kinds.push(kind);
        self.positions.push(pos);
        self.adjacency.push(Vec::new());
        id
    }

    fn add_edge(&mut self, a: NodeId, b: NodeId, kind: EdgeKind) {
        let idx = self.edges.len();
        self.edges.push(Edge { a, b, kind });
        self.adjacency[a.0].push((b, idx));
        self.adjacency[b.0].push((a, idx));
    }

    fn finish(self, ct: NodeId, grid_side: usize) -> TopologyGraph {
        let pts = self
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == NodeKind::Processing)
            .map(|(i, _)| NodeId(i))
            .collect();
        TopologyGraph {
            topology: self.topology,
            kinds: self.kinds,
            edges: self.edges,
            adjacency: self.adjacency,
            ct,
            pts,
            positions: self.positions,
            grid_side,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_has_direct_spokes() {
        let g = TopologyGraph::build(Topology::Star, 8);
        assert_eq!(g.pts().len(), 8);
        assert_eq!(g.edges().len(), 8);
        assert_eq!(g.worst_case_hops(), 2, "PT -> CT -> PT");
    }

    #[test]
    fn htree_16pts_worst_case_is_8_hops() {
        // Paper Fig. 5(b): leaf -> root -> leaf through 4 tree levels.
        let g = TopologyGraph::build(Topology::HTree, 16);
        assert_eq!(g.pts().len(), 16);
        assert_eq!(g.worst_case_hops(), 8);
    }

    #[test]
    fn binary_tree_sibling_links_help_neighbors() {
        let bt = TopologyGraph::build(Topology::BinaryTree, 16);
        let ht = TopologyGraph::build(Topology::HTree, 16);
        // Adjacent leaves are 1 hop in the bi-tree (sibling link) vs 2+ in
        // the H-tree.
        let d_bt = bt.distances_from(bt.pts()[0], |_| true)[bt.pts()[1].0];
        let d_ht = ht.distances_from(ht.pts()[0], |_| true)[ht.pts()[1].0];
        assert_eq!(d_bt, 1);
        assert!(d_ht >= 2);
        assert!(bt.worst_case_hops() <= ht.worst_case_hops());
    }

    #[test]
    fn hima_5x5_worst_case_is_4_hops() {
        // Paper Fig. 5(c): 24 PTs + CT on a 5x5 grid, diagonals keep the
        // worst-case inter-tile distance at 4 hops.
        let g = TopologyGraph::build(Topology::Hima, 24);
        assert_eq!(g.grid_side(), 5);
        assert_eq!(g.worst_case_hops(), 4);
    }

    #[test]
    fn mesh_5x5_worst_case_is_8_hops() {
        let g = TopologyGraph::build(Topology::Mesh, 24);
        assert_eq!(g.worst_case_hops(), 8, "corner-to-corner Manhattan distance");
    }

    #[test]
    fn hima_halves_mesh_distance() {
        for n in [8, 16, 24, 48] {
            let mesh = TopologyGraph::build(Topology::Mesh, n);
            let hima = TopologyGraph::build(Topology::Hima, n);
            assert!(
                hima.worst_case_hops() <= mesh.worst_case_hops().div_ceil(2) + 1,
                "n={n}: hima {} vs mesh {}",
                hima.worst_case_hops(),
                mesh.worst_case_hops()
            );
        }
    }

    #[test]
    fn ct_is_at_grid_center() {
        let g = TopologyGraph::build(Topology::Hima, 16);
        let (r, c) = g.position(g.ct()).unwrap();
        let mid = g.grid_side() / 2;
        assert_eq!((r, c), (mid, mid));
    }

    #[test]
    fn all_topologies_have_requested_pts_and_are_connected() {
        for topo in Topology::ALL {
            for n in [1usize, 3, 8, 16, 33] {
                let g = TopologyGraph::build(topo, n);
                assert_eq!(g.pts().len(), n, "{topo:?} n={n}");
                let dist = g.distances_from(g.ct(), |_| true);
                for &pt in g.pts() {
                    assert_ne!(dist[pt.0], usize::MAX, "{topo:?}: PT unreachable from CT");
                }
            }
        }
    }

    #[test]
    fn tree_pads_to_power_of_two_leaves() {
        let g = TopologyGraph::build(Topology::HTree, 5);
        assert_eq!(g.pts().len(), 5);
        // 8-leaf tree: 1 root + 2 + 4 + 8 = 15 nodes.
        assert_eq!(g.node_count(), 15);
    }

    #[test]
    fn grid_adjacency_is_symmetric() {
        let g = TopologyGraph::build(Topology::Hima, 16);
        for (i, adj) in (0..g.node_count()).map(|i| (i, g.neighbors(NodeId(i)))) {
            for &(n, _) in adj {
                assert!(
                    g.neighbors(n).iter().any(|&(back, _)| back.0 == i),
                    "asymmetric adjacency {i} <-> {}",
                    n.0
                );
            }
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Topology::HTree.label(), "H-Tree");
        assert_eq!(Topology::Hima.label(), "HiMA");
    }

    #[test]
    #[should_panic(expected = "at least one processing tile")]
    fn rejects_zero_pts() {
        TopologyGraph::build(Topology::Mesh, 0);
    }
}
