//! The network graph: nodes, roles, and attributed links.

use tactic_sim::time::SimDuration;

/// A node identifier: a dense `u32` index into the graph's node table.
///
/// `u32` (not `usize`) is deliberate: at 10⁵–10⁶ nodes the id appears in
/// every adjacency entry, face table, FIB route, and pending event, and
/// halving it keeps those flat arrays cache-resident. Four billion nodes
/// is far beyond any simulated topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Creates an id from a table index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit a `u32`.
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index fits u32"))
    }

    /// The id as a table index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A link identifier: a dense `u32` index into the graph's link table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Creates an id from a table index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit a `u32`.
    pub fn from_index(index: usize) -> Self {
        LinkId(u32::try_from(index).expect("link index fits u32"))
    }

    /// The id as a table index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a node is (paper §3.A's hierarchy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// An ISP core router (`R_C`).
    CoreRouter,
    /// An edge router (`R_E`).
    EdgeRouter,
    /// A wireless access point between users and an edge router.
    AccessPoint,
    /// A content provider (`P`).
    Provider,
    /// A legitimate client (`U`).
    Client,
    /// An unauthorized user.
    Attacker,
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Role::CoreRouter => "core-router",
            Role::EdgeRouter => "edge-router",
            Role::AccessPoint => "access-point",
            Role::Provider => "provider",
            Role::Client => "client",
            Role::Attacker => "attacker",
        };
        f.write_str(s)
    }
}

/// Link attributes: the paper's core links are 500 Mbps / 1 ms, edge links
/// 10 Mbps / 2 ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation latency.
    pub latency: SimDuration,
}

impl LinkSpec {
    /// The paper's core-link spec: 500 Mbps, 1 ms.
    pub fn core() -> Self {
        LinkSpec {
            bandwidth_bps: 500_000_000,
            latency: SimDuration::from_millis(1),
        }
    }

    /// The paper's edge-link spec: 10 Mbps, 2 ms.
    pub fn edge() -> Self {
        LinkSpec {
            bandwidth_bps: 10_000_000,
            latency: SimDuration::from_millis(2),
        }
    }

    /// Time to push `bytes` onto the wire (serialisation only).
    pub fn serialization_delay(&self, bytes: usize) -> SimDuration {
        let ns = (bytes as u128 * 8 * 1_000_000_000 / self.bandwidth_bps as u128) as u64;
        SimDuration::from_nanos(ns)
    }
}

/// An undirected attributed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Link attributes.
    pub spec: LinkSpec,
}

impl Link {
    /// The endpoint opposite `from`, if `from` is an endpoint.
    pub fn other(&self, from: NodeId) -> Option<NodeId> {
        if from == self.a {
            Some(self.b)
        } else if from == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// An undirected attributed graph with role-tagged nodes.
///
/// # Examples
///
/// ```
/// use tactic_topology::graph::{Graph, LinkSpec, Role};
///
/// let mut g = Graph::new();
/// let a = g.add_node(Role::CoreRouter);
/// let b = g.add_node(Role::EdgeRouter);
/// g.add_link(a, b, LinkSpec::core());
/// assert_eq!(g.neighbors(a).collect::<Vec<_>>(), vec![b]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    roles: Vec<Role>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a node with the given role; returns its id.
    pub fn add_node(&mut self, role: Role) -> NodeId {
        self.roles.push(role);
        self.adjacency.push(Vec::new());
        NodeId::from_index(self.roles.len() - 1)
    }

    /// Adds an undirected link; returns its id.
    ///
    /// The latency must be above zero: shortest-path routing leaves
    /// single-link users out of its Dijkstra because no path is shortest
    /// through one, which a zero-latency link would break.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or the endpoints are
    /// equal (self-loops are meaningless here); in debug builds, also if
    /// the latency is zero.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> LinkId {
        assert!(
            a.index() < self.roles.len() && b.index() < self.roles.len(),
            "endpoint out of range"
        );
        assert_ne!(a, b, "self-loop");
        debug_assert!(spec.latency > SimDuration::ZERO, "zero-latency link");
        let id = LinkId::from_index(self.links.len());
        self.links.push(Link { a, b, spec });
        self.adjacency[a.index()].push((b, id));
        self.adjacency[b.index()].push((a, id));
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.roles.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// A node's role.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn role(&self, node: NodeId) -> Role {
        self.roles[node.index()]
    }

    /// Re-tags a node's role (role refinement after generation).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_role(&mut self, node: NodeId, role: Role) {
        self.roles[node.index()] = role;
    }

    /// A link by id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Iterates over a node's neighbours.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency[node.index()].iter().map(|&(n, _)| n)
    }

    /// Iterates over `(neighbor, link)` pairs for a node.
    pub fn incident(&self, node: NodeId) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        self.adjacency[node.index()].iter().copied()
    }

    /// A node's degree.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.roles.len() as u32).map(NodeId)
    }

    /// True if the graph is connected (or empty).
    pub fn is_connected(&self) -> bool {
        if self.roles.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.roles.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for (next, _) in self.incident(n) {
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    count += 1;
                    stack.push(next);
                }
            }
        }
        count == self.roles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_graph() {
        let mut g = Graph::new();
        let a = g.add_node(Role::CoreRouter);
        let b = g.add_node(Role::CoreRouter);
        let c = g.add_node(Role::EdgeRouter);
        g.add_link(a, b, LinkSpec::core());
        g.add_link(b, c, LinkSpec::edge());
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 2);
        assert_eq!(g.degree(b), 2);
        assert!(g.is_connected());
        assert_eq!(g.role(c), Role::EdgeRouter);
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut g = Graph::new();
        g.add_node(Role::CoreRouter);
        g.add_node(Role::CoreRouter);
        assert!(!g.is_connected());
    }

    #[test]
    fn link_other_endpoint() {
        let mut g = Graph::new();
        let a = g.add_node(Role::CoreRouter);
        let b = g.add_node(Role::CoreRouter);
        let id = g.add_link(a, b, LinkSpec::core());
        let l = g.link(id);
        assert_eq!(l.other(a), Some(b));
        assert_eq!(l.other(b), Some(a));
        assert_eq!(l.other(NodeId(99)), None);
    }

    #[test]
    fn serialization_delay_math() {
        // 1250 bytes = 10_000 bits over 10 Mbps = 1 ms.
        let d = LinkSpec::edge().serialization_delay(1250);
        assert_eq!(d, SimDuration::from_millis(1));
        // Core link: 500 Mbps, same frame = 20 us.
        let d = LinkSpec::core().serialization_delay(1250);
        assert_eq!(d.as_nanos(), 20_000);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut g = Graph::new();
        let a = g.add_node(Role::CoreRouter);
        g.add_link(a, a, LinkSpec::core());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "zero-latency link")]
    fn zero_latency_link_rejected() {
        let mut g = Graph::new();
        let a = g.add_node(Role::AccessPoint);
        let b = g.add_node(Role::Client);
        let spec = LinkSpec {
            latency: SimDuration::ZERO,
            ..LinkSpec::edge()
        };
        g.add_link(a, b, spec);
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(Graph::new().is_connected());
    }
}
