//! Role assignment: turning a scale-free router graph into the paper's
//! hierarchy (Fig. 1) — core routers, designated edge routers, wireless
//! access points, providers on top, and clients/attackers at the edge.

use tactic_sim::rng::Rng;

use crate::graph::{Graph, LinkSpec, NodeId, Role};
use crate::scale_free::{generate_ba, BaParams};

/// Entity counts for a topology (the paper's Table III rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologySpec {
    /// Core routers (`R_C`).
    pub core_routers: usize,
    /// Edge routers (`R_E`).
    pub edge_routers: usize,
    /// Content providers.
    pub providers: usize,
    /// Legitimate clients.
    pub clients: usize,
    /// Unauthorized users.
    pub attackers: usize,
}

impl TopologySpec {
    /// Total routers (core + edge).
    pub fn routers(&self) -> usize {
        self.core_routers + self.edge_routers
    }

    /// Total end users (clients + attackers).
    pub fn users(&self) -> usize {
        self.clients + self.attackers
    }
}

/// A fully-assembled network: the graph plus per-role node lists.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The attributed graph.
    pub graph: Graph,
    /// Core routers.
    pub core_routers: Vec<NodeId>,
    /// Designated edge routers.
    pub edge_routers: Vec<NodeId>,
    /// Access points (one per edge router).
    pub access_points: Vec<NodeId>,
    /// Providers.
    pub providers: Vec<NodeId>,
    /// Legitimate clients.
    pub clients: Vec<NodeId>,
    /// Attackers.
    pub attackers: Vec<NodeId>,
}

impl Topology {
    /// All routers (core then edge).
    pub fn routers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.core_routers.iter().chain(&self.edge_routers).copied()
    }

    /// All end users (clients then attackers).
    pub fn users(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.clients.iter().chain(&self.attackers).copied()
    }

    /// The access point a user hangs off (its unique neighbour).
    ///
    /// # Panics
    ///
    /// Panics if `user` is not a leaf user node.
    pub fn access_point_of(&self, user: NodeId) -> NodeId {
        debug_assert!(matches!(
            self.graph.role(user),
            Role::Client | Role::Attacker
        ));
        self.graph
            .neighbors(user)
            .next()
            .expect("user must be attached to an access point")
    }

    /// The router a provider attaches to.
    ///
    /// # Panics
    ///
    /// Panics if `provider` has no neighbour.
    pub fn gateway_of(&self, provider: NodeId) -> NodeId {
        debug_assert_eq!(self.graph.role(provider), Role::Provider);
        self.graph
            .neighbors(provider)
            .next()
            .expect("provider must be attached")
    }

    /// Checks the structural invariants every plane assembly relies on:
    /// each access point reaches an edge router, each user hangs off an
    /// access point, each provider is attached. Returns every defect
    /// found (empty `Err` is never produced).
    pub fn validate_wiring(&self) -> Result<(), Vec<WiringDefect>> {
        let mut defects = Vec::new();
        for &ap in &self.access_points {
            let wired = self
                .graph
                .neighbors(ap)
                .any(|n| self.graph.role(n) == Role::EdgeRouter);
            if !wired {
                defects.push(WiringDefect::UnwiredAp(ap));
            }
        }
        for u in self.users().collect::<Vec<_>>() {
            let attached = self
                .graph
                .neighbors(u)
                .any(|n| self.graph.role(n) == Role::AccessPoint);
            if !attached {
                defects.push(WiringDefect::DetachedUser(u));
            }
        }
        for &p in &self.providers {
            if self.graph.neighbors(p).next().is_none() {
                defects.push(WiringDefect::DetachedProvider(p));
            }
        }
        if defects.is_empty() {
            Ok(())
        } else {
            Err(defects)
        }
    }
}

/// A structural inconsistency found by [`Topology::validate_wiring`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WiringDefect {
    /// An access point with no edge-router neighbour (an AP relay's
    /// upstream lookup would fail on it).
    UnwiredAp(NodeId),
    /// A user node not attached to any access point.
    DetachedUser(NodeId),
    /// A provider with no attachment at all.
    DetachedProvider(NodeId),
}

/// Builds a complete topology from a spec:
///
/// 1. generate a BA scale-free graph over all routers (m = 2);
/// 2. designate the `edge_routers` lowest-degree routers as edge routers
///    (the paper "selected a few designated routers ... as the edge
///    routers"; low-degree nodes are the natural periphery);
/// 3. attach each provider to a distinct high-degree core router over a
///    core link;
/// 4. attach one access point per edge router over an edge link;
/// 5. scatter clients and attackers round-robin across access points over
///    edge links.
pub fn build_topology(spec: &TopologySpec, rng: &mut Rng) -> Topology {
    assert!(spec.edge_routers >= 1, "need at least one edge router");
    assert!(spec.providers >= 1, "need at least one provider");
    let mut graph = generate_ba(BaParams::new(spec.routers(), 2), rng);

    // Rank routers by ascending degree; ties broken by id for determinism.
    let mut by_degree: Vec<NodeId> = graph.nodes().collect();
    by_degree.sort_by_key(|&n| (graph.degree(n), n));
    let edge_routers: Vec<NodeId> = by_degree[..spec.edge_routers].to_vec();
    let core_routers: Vec<NodeId> = by_degree[spec.edge_routers..].to_vec();
    for &e in &edge_routers {
        graph.set_role(e, Role::EdgeRouter);
    }

    // Providers attach to the highest-degree core routers (the ISP "top of
    // the hierarchy"), one per router where possible.
    let mut provider_hosts: Vec<NodeId> = core_routers.clone();
    provider_hosts.sort_by_key(|&n| (std::cmp::Reverse(graph.degree(n)), n));
    let mut providers = Vec::with_capacity(spec.providers);
    for i in 0..spec.providers {
        let host = provider_hosts[i % provider_hosts.len()];
        let p = graph.add_node(Role::Provider);
        graph.add_link(p, host, LinkSpec::core());
        providers.push(p);
    }

    // One access point per edge router.
    let mut access_points = Vec::with_capacity(edge_routers.len());
    for &e in &edge_routers {
        let ap = graph.add_node(Role::AccessPoint);
        graph.add_link(ap, e, LinkSpec::edge());
        access_points.push(ap);
    }

    // Users round-robin over APs, randomised start offset per run.
    let offset = rng.below_usize(access_points.len());
    let mut clients = Vec::with_capacity(spec.clients);
    let mut attackers = Vec::with_capacity(spec.attackers);
    for i in 0..spec.users() {
        let ap = access_points[(offset + i) % access_points.len()];
        let role = if i < spec.clients {
            Role::Client
        } else {
            Role::Attacker
        };
        let u = graph.add_node(role);
        graph.add_link(u, ap, LinkSpec::edge());
        if role == Role::Client {
            clients.push(u);
        } else {
            attackers.push(u);
        }
    }

    let topo = Topology {
        graph,
        core_routers,
        edge_routers,
        access_points,
        providers,
        clients,
        attackers,
    };
    debug_assert_eq!(topo.validate_wiring(), Ok(()), "a built topology is wired");
    topo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TopologySpec {
        TopologySpec {
            core_routers: 30,
            edge_routers: 5,
            providers: 3,
            clients: 12,
            attackers: 6,
        }
    }

    #[test]
    fn counts_match_spec() {
        let t = build_topology(&spec(), &mut Rng::seed_from_u64(1));
        assert_eq!(t.core_routers.len(), 30);
        assert_eq!(t.edge_routers.len(), 5);
        assert_eq!(t.providers.len(), 3);
        assert_eq!(t.clients.len(), 12);
        assert_eq!(t.attackers.len(), 6);
        assert_eq!(t.access_points.len(), 5);
        assert_eq!(
            t.graph.node_count(),
            30 + 5 + 3 + 12 + 6 + 5,
            "routers + providers + users + APs"
        );
        assert!(t.graph.is_connected());
    }

    #[test]
    fn roles_are_tagged() {
        let t = build_topology(&spec(), &mut Rng::seed_from_u64(2));
        for &e in &t.edge_routers {
            assert_eq!(t.graph.role(e), Role::EdgeRouter);
        }
        for &c in &t.core_routers {
            assert_eq!(t.graph.role(c), Role::CoreRouter);
        }
        for &p in &t.providers {
            assert_eq!(t.graph.role(p), Role::Provider);
        }
    }

    #[test]
    fn users_reach_edge_routers_through_aps() {
        let t = build_topology(&spec(), &mut Rng::seed_from_u64(3));
        for u in t.users().collect::<Vec<_>>() {
            let ap = t.access_point_of(u);
            assert_eq!(t.graph.role(ap), Role::AccessPoint);
            let mut beyond = t.graph.neighbors(ap).map(|n| t.graph.role(n));
            assert!(beyond.any(|role| role == Role::EdgeRouter));
        }
    }

    #[test]
    fn providers_attach_to_core() {
        let t = build_topology(&spec(), &mut Rng::seed_from_u64(4));
        for &p in &t.providers {
            let gw = t.gateway_of(p);
            assert_eq!(t.graph.role(gw), Role::CoreRouter);
        }
    }

    #[test]
    fn edge_routers_sit_at_the_periphery() {
        let t = build_topology(&spec(), &mut Rng::seed_from_u64(5));
        // Every designated edge router's router-degree must be <= the max
        // core router degree (they were chosen as the lowest-degree nodes).
        let max_edge = t
            .edge_routers
            .iter()
            .map(|&e| {
                t.graph
                    .neighbors(e)
                    .filter(|&n| matches!(t.graph.role(n), Role::CoreRouter | Role::EdgeRouter))
                    .count()
            })
            .max()
            .unwrap();
        let max_core = t
            .core_routers
            .iter()
            .map(|&c| t.graph.degree(c))
            .max()
            .unwrap();
        assert!(max_edge <= max_core);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build_topology(&spec(), &mut Rng::seed_from_u64(6));
        let b = build_topology(&spec(), &mut Rng::seed_from_u64(6));
        assert_eq!(a.graph.link_count(), b.graph.link_count());
        assert_eq!(a.edge_routers, b.edge_routers);
        assert_eq!(a.clients, b.clients);
    }

    #[test]
    fn generated_topologies_validate_clean() {
        let t = build_topology(&spec(), &mut Rng::seed_from_u64(11));
        assert_eq!(t.validate_wiring(), Ok(()));
    }

    #[test]
    fn unwired_ap_is_detected() {
        let mut t = build_topology(&spec(), &mut Rng::seed_from_u64(12));
        // Sever an AP from the edge tier by demoting its edge router: the
        // AP now only touches a core router, exactly the defect a
        // scale-free generator can produce.
        let ap = t.access_points[0];
        let er = t
            .graph
            .neighbors(ap)
            .find(|&n| t.graph.role(n) == Role::EdgeRouter)
            .unwrap();
        t.graph.set_role(er, Role::CoreRouter);
        t.edge_routers.retain(|&n| n != er);
        t.core_routers.push(er);

        let defects = t.validate_wiring().unwrap_err();
        assert!(defects.contains(&super::WiringDefect::UnwiredAp(ap)));
    }

    #[test]
    fn detached_provider_is_detected() {
        let mut t = build_topology(&spec(), &mut Rng::seed_from_u64(13));
        let p = t.graph.add_node(Role::Provider);
        t.providers.push(p);
        let defects = t.validate_wiring().unwrap_err();
        assert_eq!(defects, vec![super::WiringDefect::DetachedProvider(p)]);
    }

    #[test]
    fn users_spread_across_aps() {
        let t = build_topology(&spec(), &mut Rng::seed_from_u64(7));
        // 18 users over 5 APs round-robin: every AP serves 3 or 4 users.
        for &ap in &t.access_points {
            let served = t
                .graph
                .neighbors(ap)
                .filter(|&n| matches!(t.graph.role(n), Role::Client | Role::Attacker))
                .count();
            assert!((3..=4).contains(&served), "AP serves {served}");
        }
    }
}
