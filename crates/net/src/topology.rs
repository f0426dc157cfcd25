//! Fabric topologies (paper §2.6).
//!
//! The paper's prototype stops at small glueless configurations (a
//! clique of up to five nodes), but the §2.6 interconnect is explicitly
//! designed for larger "modular and scalable" systems. This module
//! holds the topology zoo the scaling experiments sweep:
//!
//! * [`Topology::ring`] / [`Topology::fully_connected`] /
//!   [`Topology::mesh`] — the original paper-scale builders;
//! * [`Topology::mesh_of`] — an *exact-count* 2-D mesh (the last row
//!   may be partial), so an `n`-node machine gets exactly `n` topology
//!   nodes;
//! * [`Topology::torus`] — a 2-D torus (wraparound mesh), halving the
//!   network diameter at the same ≤ 4 channel budget;
//! * [`Topology::fat_tree`] — a two-level folded-Clos tree in which the
//!   machine's nodes are *leaves* and the interior switches are extra
//!   **phantom nodes** that route but never source or sink traffic.
//!
//! [`TopologyKind`] is the configuration-level selector the system
//! layer (and the `--topology=` CLI rider) uses; the wiring maps a kind
//! plus a node count to a concrete graph.
//!
//! Every builder produces a connected, symmetric graph, and
//! [`Topology::distances`] (all-pairs BFS) stays the single source of
//! the conservative per-pair lookahead bounds: the router charges at
//! least one minimum hop per link traversed and can never use fewer
//! links than the BFS distance.

use piranha_types::NodeId;

/// Which fabric topology to build for a machine — the configuration
/// knob behind `--topology=`. The concrete graph is constructed by the
/// system wiring from the machine's node count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TopologyKind {
    /// The historical default: glueless clique up to five nodes, exact
    /// 2-D mesh beyond, custom dual-homed graph when I/O nodes are
    /// present. All golden configurations use this kind.
    #[default]
    Auto,
    /// A bidirectional ring (2 channels per node).
    Ring,
    /// An exact-count 2-D mesh ([`Topology::mesh_of`]).
    Mesh,
    /// A 2-D torus ([`Topology::torus`]); falls back to a ring when the
    /// node count has no `w × h` factorization with both sides ≥ 2 (a
    /// ring *is* the 1-D torus).
    Torus,
    /// A two-level fat tree ([`Topology::fat_tree`]) with phantom
    /// switch nodes above the machine's leaf nodes.
    FatTree,
}

impl TopologyKind {
    /// Parse a `--topology=` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(TopologyKind::Auto),
            "ring" => Some(TopologyKind::Ring),
            "mesh" => Some(TopologyKind::Mesh),
            "torus" => Some(TopologyKind::Torus),
            "fattree" | "fat-tree" | "fat_tree" => Some(TopologyKind::FatTree),
            _ => None,
        }
    }

    /// The flag spelling (stable, lowercase; used in report rows).
    pub fn label(self) -> &'static str {
        match self {
            TopologyKind::Auto => "auto",
            TopologyKind::Ring => "ring",
            TopologyKind::Mesh => "mesh",
            TopologyKind::Torus => "torus",
            TopologyKind::FatTree => "fattree",
        }
    }
}

/// A system topology: which nodes connect to which.
#[derive(Debug, Clone)]
pub struct Topology {
    /// adjacency[i] = neighbours of node i.
    pub(crate) adj: Vec<Vec<NodeId>>,
    /// The first `hosts` nodes source and sink traffic (the machine's
    /// lanes); any nodes beyond are phantom switches that only route
    /// (fat-tree interior). Every builder except [`Topology::fat_tree`]
    /// makes every node a host.
    hosts: usize,
}

impl Topology {
    fn from_adj(adj: Vec<Vec<NodeId>>) -> Self {
        let hosts = adj.len();
        Topology { adj, hosts }
    }

    /// A topology from an explicit neighbour list.
    ///
    /// # Panics
    ///
    /// Panics if the adjacency is asymmetric, contains self-loops or
    /// out-of-range nodes, or is not connected.
    pub fn custom(adj: Vec<Vec<NodeId>>) -> Self {
        let n = adj.len();
        for (i, nbrs) in adj.iter().enumerate() {
            for &m in nbrs {
                assert!((m.index()) < n, "neighbour {m} out of range");
                assert_ne!(m.index(), i, "self-loop at node {i}");
                assert!(
                    adj[m.index()].contains(&NodeId(i as u16)),
                    "asymmetric link {i} -> {m}"
                );
            }
        }
        let t = Topology::from_adj(adj);
        assert!(t.is_connected(), "topology must be connected");
        t
    }

    /// A bidirectional ring of `n` nodes (2 channels per node).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 2, "ring needs at least 2 nodes");
        let adj = (0..n)
            .map(|i| {
                let prev = NodeId(((i + n - 1) % n) as u16);
                let next = NodeId(((i + 1) % n) as u16);
                if prev == next {
                    vec![next] // n == 2
                } else {
                    vec![prev, next]
                }
            })
            .collect();
        Topology::from_adj(adj)
    }

    /// A fully-connected topology (possible gluelessly up to 5 processing
    /// nodes with 4 channels each); used for the paper's 4-chip scaling
    /// study.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > MAX_CHANNELS + 1`.
    pub fn fully_connected(n: usize) -> Self {
        assert!(
            (2..=crate::router::MAX_CHANNELS + 1).contains(&n),
            "full mesh limited by 4 channels/node"
        );
        let adj = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| NodeId(j as u16))
                    .collect()
            })
            .collect();
        Topology::from_adj(adj)
    }

    /// A 2-D mesh of `w x h` nodes (≤ 4 channels per node, the paper's
    /// natural large-system topology).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the mesh is a single node.
    pub fn mesh(w: usize, h: usize) -> Self {
        assert!(w * h >= 2, "mesh needs at least 2 nodes");
        let id = |x: usize, y: usize| NodeId((y * w + x) as u16);
        let adj = (0..w * h)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                let mut nbrs = Vec::new();
                if x > 0 {
                    nbrs.push(id(x - 1, y));
                }
                if x + 1 < w {
                    nbrs.push(id(x + 1, y));
                }
                if y > 0 {
                    nbrs.push(id(x, y - 1));
                }
                if y + 1 < h {
                    nbrs.push(id(x, y + 1));
                }
                nbrs
            })
            .collect();
        Topology::from_adj(adj)
    }

    /// An **exact-count** 2-D mesh over `n` nodes: rows of width
    /// `ceil(sqrt(n))`, the last row possibly partial. Unlike rounding
    /// `n` up to a full `w × h` rectangle, this never instantiates
    /// topology nodes the machine doesn't have — every node is a lane.
    /// When `n` happens to fill the rectangle exactly the result is
    /// identical to [`Topology::mesh`].
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn mesh_of(n: usize) -> Self {
        assert!(n >= 2, "mesh needs at least 2 nodes");
        let w = (n as f64).sqrt().ceil() as usize;
        let h = n.div_ceil(w);
        if w * h == n {
            return Topology::mesh(w, h);
        }
        let adj = (0..n)
            .map(|i| {
                let x = i % w;
                let mut nbrs = Vec::new();
                if x > 0 {
                    nbrs.push(NodeId((i - 1) as u16));
                }
                if x + 1 < w && i + 1 < n {
                    nbrs.push(NodeId((i + 1) as u16));
                }
                if i >= w {
                    nbrs.push(NodeId((i - w) as u16));
                }
                if i + w < n {
                    nbrs.push(NodeId((i + w) as u16));
                }
                nbrs
            })
            .collect();
        let t = Topology::from_adj(adj);
        debug_assert!(t.is_connected(), "partial-row mesh stays connected");
        t
    }

    /// A 2-D torus of `w × h` nodes: a mesh with wraparound links in
    /// both dimensions, halving the diameter at the same ≤ 4 channel
    /// budget. Duplicate links (a 2-wide dimension wraps onto the same
    /// neighbour) are collapsed.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is < 2.
    pub fn torus(w: usize, h: usize) -> Self {
        assert!(w >= 2 && h >= 2, "torus needs both dimensions >= 2");
        let id = |x: usize, y: usize| NodeId((y * w + x) as u16);
        let adj = (0..w * h)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                let mut nbrs: Vec<NodeId> = Vec::new();
                let mut push = |n: NodeId| {
                    if !nbrs.contains(&n) {
                        nbrs.push(n);
                    }
                };
                push(id((x + w - 1) % w, y));
                push(id((x + 1) % w, y));
                push(id(x, (y + h - 1) % h));
                push(id(x, (y + 1) % h));
                nbrs
            })
            .collect();
        Topology::from_adj(adj)
    }

    /// A two-level folded-Clos fat tree over `leaves` machine nodes:
    /// each group of up to four leaves hangs off an edge switch, and
    /// every edge switch connects to two root switches (one root when a
    /// single edge switch suffices, i.e. no roots at all). The switches
    /// are **phantom nodes** — they occupy topology slots after the
    /// leaves, route packets, and never source or sink traffic — so
    /// [`Topology::hosts`] is `leaves`, not [`Topology::nodes`].
    ///
    /// Switch degree exceeds [`crate::MAX_CHANNELS`]: the 4-channel
    /// budget constrains *processing-node* routers (paper §2.6.1), not
    /// dedicated switch silicon. Leaf degree is 1.
    ///
    /// # Panics
    ///
    /// Panics if `leaves < 2`.
    pub fn fat_tree(leaves: usize) -> Self {
        assert!(leaves >= 2, "fat tree needs at least 2 leaves");
        let edges = leaves.div_ceil(4);
        let roots = if edges == 1 { 0 } else { 2 };
        let total = leaves + edges + roots;
        let mut adj: Vec<Vec<NodeId>> = (0..total).map(|_| Vec::new()).collect();
        for leaf in 0..leaves {
            let edge = leaves + leaf / 4;
            adj[leaf].push(NodeId(edge as u16));
            adj[edge].push(NodeId(leaf as u16));
        }
        for e in 0..edges {
            let edge = leaves + e;
            for r in 0..roots {
                let root = leaves + edges + r;
                adj[edge].push(NodeId(root as u16));
                adj[root].push(NodeId(edge as u16));
            }
        }
        let mut t = Topology::from_adj(adj);
        t.hosts = leaves;
        debug_assert!(t.is_connected(), "fat tree is connected by construction");
        t
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of nodes that source and sink traffic (the machine's
    /// lanes). Equal to [`Topology::nodes`] on every topology except
    /// the fat tree, whose interior switches are phantom.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Neighbours of `n`.
    pub fn neighbours(&self, n: NodeId) -> &[NodeId] {
        &self.adj[n.index()]
    }

    /// Maximum degree (must be ≤ 4 for processing nodes).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    pub(crate) fn is_connected(&self) -> bool {
        let n = self.adj.len();
        if n == 0 {
            return false;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(i) = stack.pop() {
            for &m in &self.adj[i] {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    stack.push(m.index());
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// All-pairs shortest-path hop counts via BFS: `distances[src][dst]`
    /// = minimum hops from `src` to `dst` (0 on the diagonal). The
    /// topology is connected by construction, so every entry is finite.
    pub fn distances(&self) -> Vec<Vec<usize>> {
        let n = self.adj.len();
        let mut table = vec![vec![0usize; n]; n];
        for src in 0..n {
            let dist = &mut table[src];
            let mut seen = vec![false; n];
            seen[src] = true;
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                for &v in &self.adj[u] {
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        dist[v.index()] = dist[u] + 1;
                        queue.push_back(v.index());
                    }
                }
            }
        }
        table
    }

    /// All-pairs next-hop table via BFS: `table[src][dst]` = neighbour to
    /// take (self for src == dst).
    pub(crate) fn next_hops(&self) -> Vec<Vec<NodeId>> {
        let n = self.adj.len();
        let mut table = vec![vec![NodeId(0); n]; n];
        for dst in 0..n {
            // BFS backwards from dst.
            let mut dist = vec![usize::MAX; n];
            let mut next = vec![NodeId(dst as u16); n];
            let mut queue = std::collections::VecDeque::new();
            dist[dst] = 0;
            queue.push_back(dst);
            while let Some(u) = queue.pop_front() {
                for &v in &self.adj[u] {
                    if dist[v.index()] == usize::MAX {
                        dist[v.index()] = dist[u] + 1;
                        // First hop from v toward dst is u.
                        next[v.index()] = NodeId(u as u16);
                        queue.push_back(v.index());
                    }
                }
            }
            for src in 0..n {
                table[src][dst] = next[src];
            }
        }
        table
    }
}
