//! Shortest-path routing and FIB population.
//!
//! The simulation precomputes routes the way ndnSIM's `GlobalRoutingHelper`
//! does: Dijkstra from every provider's attachment point over link latency,
//! then install the provider's name prefix in every node's FIB pointing at
//! the next hop toward the provider.
//!
//! The Dijkstras run over the forwarding [`Core`]: every node but the
//! single-link users, most of a fleet. A user's one link leads to its
//! access point, so no shortest path between two other nodes passes
//! through it, and leaving users out changes no other node's route while
//! making each Dijkstra cost the core's size instead of the fleet's.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tactic_sim::time::SimDuration;

use crate::graph::{Graph, NodeId, Role};

/// Per-node Dijkstra result relative to one destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// The neighbour to forward to in order to reach the destination.
    pub next_hop: NodeId,
    /// Total path latency.
    pub cost: SimDuration,
}

/// The core-local index of a node outside the core, and the predecessor
/// of a node with none.
const OUTSIDE: u32 = u32::MAX;

/// The distance of a node not (yet) reached.
const UNREACHED: u64 = u64::MAX;

/// The forwarding core of a graph: every node except the users (clients
/// and attackers) with at most one link, held as compressed adjacency
/// rows over core-local indices.
///
/// Core-local indices ascend with [`NodeId`], so comparing them compares
/// node ids: the Dijkstra's tie-break toward the lower predecessor id is
/// the same on either.
#[derive(Debug, Clone)]
pub struct Core {
    /// Core-local index → node id, ascending.
    nodes: Vec<NodeId>,
    /// Node id → core-local index, [`OUTSIDE`] for a node left out.
    local: Vec<u32>,
    /// Core node `i`'s neighbours are `adjacency[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// `(neighbour's core-local index, link latency in ns)`, each row in
    /// the graph's adjacency order.
    adjacency: Vec<(u32, u64)>,
}

impl Core {
    /// The core of `graph`. A route target must be in it, so each of
    /// `targets` is kept even if it is a single-link user.
    pub fn new(graph: &Graph, targets: &[NodeId]) -> Core {
        let n = graph.node_count();
        let mut local = vec![OUTSIDE; n];
        // Mark the targets kept; the pass below numbers every kept node.
        for &target in targets {
            local[target.index()] = 0;
        }
        let mut nodes = Vec::new();
        for node in graph.nodes() {
            let user = matches!(graph.role(node), Role::Client | Role::Attacker);
            if !user || graph.degree(node) > 1 || local[node.index()] != OUTSIDE {
                local[node.index()] = nodes.len() as u32;
                nodes.push(node);
            }
        }
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        let mut adjacency = Vec::new();
        offsets.push(0);
        for &node in &nodes {
            for (peer, link) in graph.incident(node) {
                let peer = local[peer.index()];
                if peer != OUTSIDE {
                    adjacency.push((peer, graph.link(link).spec.latency.as_nanos()));
                }
            }
            offsets.push(u32::try_from(adjacency.len()).expect("core links fit u32"));
        }
        Core {
            nodes,
            local,
            offsets,
            adjacency,
        }
    }

    /// Whether `node` is in the core.
    pub fn contains(&self, node: NodeId) -> bool {
        self.local[node.index()] != OUTSIDE
    }

    /// Every core node's next hop and cost toward `target`, over the core
    /// links for which `usable(a, b)` holds — the fault-injection layer
    /// recomputes routes around scheduled link/node failures with this.
    ///
    /// The predicate sees a link as `(from, to)` while relaxing `from`'s
    /// neighbours; a symmetric predicate yields symmetric routing. Edge
    /// weight is the link's propagation latency; of two equally short
    /// paths a node takes the one through its lower-id neighbour, so
    /// routing is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not in the core.
    pub fn routes_toward(
        &self,
        target: NodeId,
        mut usable: impl FnMut(NodeId, NodeId) -> bool,
    ) -> CoreRoutes<'_> {
        let t = self.local[target.index()];
        assert_ne!(t, OUTSIDE, "route target {target} is outside the core");
        let mut dist = vec![UNREACHED; self.nodes.len()];
        let mut next = vec![OUTSIDE; self.nodes.len()];
        // Dijkstra from the target; `next[v]` is v's neighbour on the
        // shortest path toward the target (the node we relaxed v from).
        let mut heap = BinaryHeap::new();
        dist[t as usize] = 0;
        heap.push(Reverse((0, t)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if dist[u as usize] != d {
                continue; // Stale entry.
            }
            let row = self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize;
            for &(v, w) in &self.adjacency[row] {
                // Nothing is shorter than the target's own zero.
                if v == t || !usable(self.nodes[u as usize], self.nodes[v as usize]) {
                    continue;
                }
                let cand = d + w;
                let cur = dist[v as usize];
                if cand < cur || (cand == cur && u < next[v as usize]) {
                    dist[v as usize] = cand;
                    next[v as usize] = u;
                    heap.push(Reverse((cand, v)));
                }
            }
        }
        CoreRoutes {
            core: self,
            dist,
            next,
        }
    }
}

/// One target's shortest-path tree over a [`Core`].
#[derive(Debug, Clone)]
pub struct CoreRoutes<'a> {
    core: &'a Core,
    /// Per core node: the path latency in ns, [`UNREACHED`] if cut off.
    dist: Vec<u64>,
    /// Per core node: the next hop's core-local index, [`OUTSIDE`] at the
    /// target and at nodes cut off.
    next: Vec<u32>,
}

impl CoreRoutes<'_> {
    /// `node`'s next hop and cost toward the target: `None` for the
    /// target itself, for a node cut off from it and for a node outside
    /// the core.
    pub fn get(&self, node: NodeId) -> Option<RouteEntry> {
        let i = *self.core.local.get(node.index())?;
        let next = *self.next.get(i as usize)?;
        (next != OUTSIDE).then(|| RouteEntry {
            next_hop: self.core.nodes[next as usize],
            cost: SimDuration::from_nanos(self.dist[i as usize]),
        })
    }

    /// `node`'s path latency to the target: zero at the target, `None`
    /// for a node cut off from it and for a node outside the core.
    pub fn cost(&self, node: NodeId) -> Option<SimDuration> {
        let i = *self.core.local.get(node.index())?;
        let dist = *self.dist.get(i as usize)?;
        (dist != UNREACHED).then(|| SimDuration::from_nanos(dist))
    }
}

/// Computes, for every node, the next hop and cost toward `target`
/// (`None` for unreachable nodes and for `target` itself).
///
/// Edge weight is the link's propagation latency; ties resolve toward the
/// lower node id, so routing is deterministic. A single-link user's route
/// is its access point: next hop the access point, cost the access
/// point's cost plus the user's link. It is read off the access point's
/// route rather than computed: the Dijkstra runs over the [`Core`].
pub fn routes_toward(graph: &Graph, target: NodeId) -> Vec<Option<RouteEntry>> {
    routes_toward_filtered(graph, target, |_, _| true)
}

/// [`routes_toward`] over the subgraph of links for which `usable(a, b)`
/// returns `true`.
///
/// The predicate sees a link as `(from, to)` while relaxing `from`'s
/// neighbours (a user's link as `(access point, user)`); a symmetric
/// predicate yields symmetric routing. Nodes cut off by the filter get
/// `None`, exactly like physically unreachable nodes.
pub fn routes_toward_filtered<F>(
    graph: &Graph,
    target: NodeId,
    mut usable: F,
) -> Vec<Option<RouteEntry>>
where
    F: FnMut(NodeId, NodeId) -> bool,
{
    let core = Core::new(graph, &[target]);
    let routes = core.routes_toward(target, &mut usable);
    graph
        .nodes()
        .map(|node| {
            if core.contains(node) {
                return routes.get(node);
            }
            let (ap, link) = graph.incident(node).next()?;
            let cost = routes.cost(ap)? + graph.link(link).spec.latency;
            usable(ap, node).then_some(RouteEntry { next_hop: ap, cost })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkSpec, Role};

    /// a --1ms-- b --1ms-- c
    ///  \________2ms_______/   (direct a-c link, higher latency than a-b-c? no: 2ms = 1+1)
    fn line_graph() -> (Graph, [NodeId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node(Role::CoreRouter);
        let b = g.add_node(Role::CoreRouter);
        let c = g.add_node(Role::CoreRouter);
        g.add_link(a, b, LinkSpec::core());
        g.add_link(b, c, LinkSpec::core());
        (g, [a, b, c])
    }

    #[test]
    fn line_routes() {
        let (g, [a, b, c]) = line_graph();
        let routes = routes_toward(&g, c);
        assert_eq!(routes[a.index()].unwrap().next_hop, b);
        assert_eq!(routes[a.index()].unwrap().cost, SimDuration::from_millis(2));
        assert_eq!(routes[b.index()].unwrap().next_hop, c);
        assert!(routes[c.index()].is_none(), "target has no route to itself");
    }

    #[test]
    fn prefers_lower_latency_path() {
        let mut g = Graph::new();
        let a = g.add_node(Role::CoreRouter);
        let b = g.add_node(Role::CoreRouter);
        let c = g.add_node(Role::CoreRouter);
        // a-c direct over a slow edge link (2 ms), a-b-c over core links (1+1 ms).
        g.add_link(
            a,
            c,
            LinkSpec {
                bandwidth_bps: 10_000_000,
                latency: SimDuration::from_millis(5),
            },
        );
        g.add_link(a, b, LinkSpec::core());
        g.add_link(b, c, LinkSpec::core());
        let routes = routes_toward(&g, c);
        assert_eq!(
            routes[a.index()].unwrap().next_hop,
            b,
            "must avoid the 5 ms link"
        );
        assert_eq!(routes[a.index()].unwrap().cost, SimDuration::from_millis(2));
    }

    #[test]
    fn unreachable_nodes_have_no_route() {
        let mut g = Graph::new();
        let a = g.add_node(Role::CoreRouter);
        let b = g.add_node(Role::CoreRouter);
        let island = g.add_node(Role::CoreRouter);
        g.add_link(a, b, LinkSpec::core());
        let routes = routes_toward(&g, a);
        assert!(routes[b.index()].is_some());
        assert!(routes[island.index()].is_none());
    }

    #[test]
    fn tie_breaking_is_deterministic() {
        // Diamond: a -> {b, c} -> d with equal latencies. a must always pick
        // the same branch.
        let mut g = Graph::new();
        let a = g.add_node(Role::CoreRouter);
        let b = g.add_node(Role::CoreRouter);
        let c = g.add_node(Role::CoreRouter);
        let d = g.add_node(Role::CoreRouter);
        g.add_link(a, b, LinkSpec::core());
        g.add_link(a, c, LinkSpec::core());
        g.add_link(b, d, LinkSpec::core());
        g.add_link(c, d, LinkSpec::core());
        for _ in 0..5 {
            let routes = routes_toward(&g, d);
            assert_eq!(
                routes[a.index()].unwrap().next_hop,
                b,
                "lowest-id branch wins ties"
            );
        }
    }

    #[test]
    fn filtered_routes_detour_or_disconnect() {
        let (g, [a, b, c]) = line_graph();
        // Cutting b-c severs the only path: everything loses its route.
        let cut_bc = routes_toward_filtered(&g, c, |x, y| !(x == b && y == c || x == c && y == b));
        assert!(cut_bc[a.index()].is_none());
        assert!(cut_bc[b.index()].is_none());

        // A diamond detours instead: cut a-b and a routes via c.
        let mut g = Graph::new();
        let a = g.add_node(Role::CoreRouter);
        let b = g.add_node(Role::CoreRouter);
        let c = g.add_node(Role::CoreRouter);
        let d = g.add_node(Role::CoreRouter);
        g.add_link(a, b, LinkSpec::core());
        g.add_link(a, c, LinkSpec::core());
        g.add_link(b, d, LinkSpec::core());
        g.add_link(c, d, LinkSpec::core());
        let routes = routes_toward_filtered(&g, d, |x, y| !(x == a && y == b || x == b && y == a));
        assert_eq!(
            routes[a.index()].unwrap().next_hop,
            c,
            "detours around the cut"
        );
        assert_eq!(routes[a.index()].unwrap().cost, SimDuration::from_millis(2));
    }

    #[test]
    fn the_core_leaves_out_single_link_users_only() {
        use crate::roles::{build_topology, TopologySpec};
        use tactic_sim::rng::Rng;
        let topo = build_topology(
            &TopologySpec {
                core_routers: 24,
                edge_routers: 6,
                providers: 4,
                clients: 12,
                attackers: 3,
            },
            &mut Rng::seed_from_u64(11),
        );
        let core = Core::new(&topo.graph, &topo.providers);
        let kept = topo.graph.nodes().filter(|&n| core.contains(n)).count();
        assert_eq!(kept, 24 + 6 + 4 + 6, "routers, providers, access points");
        assert!(topo.users().all(|u| !core.contains(u)));
        // A target is kept even when it is a single-link user.
        let user = topo.clients[0];
        assert!(Core::new(&topo.graph, &[user]).contains(user));
        let routes = routes_toward(&topo.graph, user);
        let ap = topo.access_point_of(user);
        assert_eq!(routes[ap.index()].unwrap().next_hop, user);
    }

    #[test]
    fn a_user_routes_through_its_access_point() {
        let mut g = Graph::new();
        let a = g.add_node(Role::CoreRouter);
        let ap = g.add_node(Role::AccessPoint);
        let user = g.add_node(Role::Client);
        let island = g.add_node(Role::Attacker);
        g.add_link(a, ap, LinkSpec::core());
        g.add_link(ap, user, LinkSpec::edge());
        let routes = routes_toward(&g, a);
        let entry = routes[user.index()].expect("the user reaches a");
        assert_eq!(entry.next_hop, ap);
        assert_eq!(entry.cost, SimDuration::from_millis(3));
        assert!(routes[island.index()].is_none(), "a user with no link");
        // Cutting the user's own link cuts the user off, and only it.
        let cut = routes_toward_filtered(&g, a, |x, y| !(x == ap && y == user));
        assert!(cut[user.index()].is_none());
        assert_eq!(cut[ap.index()], routes[ap.index()]);
    }

    #[test]
    fn routes_form_a_tree_toward_target() {
        let (g, [a, _, c]) = line_graph();
        let routes = routes_toward(&g, c);
        // Following next hops from any node must terminate at the target.
        let mut cur = a;
        let mut hops = 0;
        while let Some(entry) = routes[cur.index()] {
            cur = entry.next_hop;
            hops += 1;
            assert!(hops < 10, "routing loop");
        }
        assert_eq!(cur, c);
    }
}
