//! Fleet-scale topology generation: 10⁵–10⁶-node ISP-like networks.
//!
//! The paper's Table III presets top out at a few hundred nodes; the
//! wireless-edge regime TACTIC targets is millions of consumers behind a
//! comparatively small router core. [`FleetSpec`] describes that shape by
//! *total* node count and structural shares and derives the exact
//! per-role counts ([`FleetSpec::to_table_spec`]), so the topology built
//! from them has exactly the requested node count — a "10⁵-node run" in
//! a bench or an experiment means precisely that.
//!
//! The router core is the same Barabási–Albert scale-free graph the
//! paper-preset builder uses ([`crate::scale_free`]); the fleet layer
//! differs only in how the counts are chosen.

use crate::roles::TopologySpec;

/// Shape of a fleet-scale network, by total size and structural shares.
///
/// # Examples
///
/// ```
/// use tactic_sim::rng::Rng;
/// use tactic_topology::fleet::FleetSpec;
/// use tactic_topology::roles::build_topology;
///
/// let spec = FleetSpec::sized(2_000).to_table_spec();
/// let topo = build_topology(&spec, &mut Rng::seed_from_u64(1));
/// assert_eq!(topo.graph.node_count(), 2_000);
/// assert_eq!(topo.validate_wiring(), Ok(()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Exact total node count (routers + APs + providers + users).
    pub total_nodes: usize,
    /// Share of all nodes that are routers (core + edge). The ISP core is
    /// small relative to the subscriber fleet; 0.10 by default.
    pub router_share: f64,
    /// Share of routers designated as edge routers (each carries one
    /// access point). 0.25 by default.
    pub edge_share: f64,
    /// Providers as a share of routers (at least one). 0.002 by default —
    /// a handful of content sources per thousand routers.
    pub provider_share: f64,
    /// Share of users that are unauthorized. 0.05 by default.
    pub attacker_share: f64,
}

impl FleetSpec {
    /// The default fleet shape at a given total size.
    ///
    /// # Panics
    ///
    /// Panics if `total_nodes < 16` — below that the shares cannot produce
    /// a seed clique, an edge tier, a provider, and a non-empty fleet.
    pub fn sized(total_nodes: usize) -> Self {
        assert!(total_nodes >= 16, "fleet needs at least 16 nodes");
        FleetSpec {
            total_nodes,
            router_share: 0.10,
            edge_share: 0.25,
            provider_share: 0.002,
            attacker_share: 0.05,
        }
    }

    /// Derives exact per-role counts whose total is `total_nodes`.
    ///
    /// The user fleet absorbs the remainder, so the sum is exact by
    /// construction: `routers + providers + access points (= edge
    /// routers) + clients + attackers == total_nodes`.
    pub fn to_table_spec(&self) -> TopologySpec {
        let total = self.total_nodes;
        let routers = ((total as f64 * self.router_share).round() as usize).clamp(4, total - 4);
        let edge = ((routers as f64 * self.edge_share).round() as usize).clamp(1, routers - 3);
        let providers = ((routers as f64 * self.provider_share).round() as usize).clamp(1, routers);
        // One AP rides along per edge router; users soak up the rest.
        let fixed = routers + edge + providers;
        assert!(
            fixed < total,
            "shares leave no room for users: {fixed} fixed nodes of {total}"
        );
        let users = total - fixed;
        let attackers = (users as f64 * self.attacker_share).round() as usize;
        let clients = users - attackers;
        assert!(clients >= 1, "fleet must contain at least one client");
        TopologySpec {
            core_routers: routers - edge,
            edge_routers: edge,
            providers,
            clients,
            attackers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Role;
    use crate::roles::{build_topology, Topology};
    use tactic_sim::rng::Rng;

    fn build_fleet(spec: &FleetSpec, rng: &mut Rng) -> Topology {
        build_topology(&spec.to_table_spec(), rng)
    }

    #[test]
    fn exact_total_across_sizes() {
        for total in [16, 100, 1_000, 10_000, 123_457] {
            let spec = FleetSpec::sized(total);
            let table = spec.to_table_spec();
            assert_eq!(
                table.routers() + table.providers + table.edge_routers + table.users(),
                total,
                "derived counts must sum to the request at {total}"
            );
        }
    }

    #[test]
    fn hundred_thousand_node_fleet_builds_and_validates() {
        let spec = FleetSpec::sized(100_000);
        let topo = build_fleet(&spec, &mut Rng::seed_from_u64(42));
        assert_eq!(topo.graph.node_count(), 100_000);
        assert_eq!(topo.validate_wiring(), Ok(()));
        assert!(topo.graph.is_connected());
        // The fleet dominates: users are the overwhelming majority.
        assert!(topo.clients.len() + topo.attackers.len() > 80_000);
        assert_eq!(topo.access_points.len(), topo.edge_routers.len());
    }

    #[test]
    #[ignore = "the 10⁶-node headline takes tens of seconds; run with --ignored"]
    fn million_node_fleet_builds_and_validates() {
        let spec = FleetSpec::sized(1_000_000);
        let topo = build_fleet(&spec, &mut Rng::seed_from_u64(7));
        assert_eq!(topo.graph.node_count(), 1_000_000);
        assert_eq!(topo.validate_wiring(), Ok(()));
        assert!(topo.graph.is_connected());
    }

    #[test]
    fn fleet_is_deterministic_per_seed() {
        let spec = FleetSpec::sized(5_000);
        let a = build_fleet(&spec, &mut Rng::seed_from_u64(9));
        let b = build_fleet(&spec, &mut Rng::seed_from_u64(9));
        assert_eq!(a.graph.link_count(), b.graph.link_count());
        assert_eq!(a.edge_routers, b.edge_routers);
        assert_eq!(a.clients, b.clients);
    }

    #[test]
    fn fleet_roles_follow_shares() {
        let spec = FleetSpec::sized(10_000);
        let topo = build_fleet(&spec, &mut Rng::seed_from_u64(3));
        let routers = topo.core_routers.len() + topo.edge_routers.len();
        assert!((900..=1_100).contains(&routers), "routers {routers}");
        let attackers = topo.attackers.len();
        let users = attackers + topo.clients.len();
        assert!(
            (attackers as f64) / (users as f64) < 0.07,
            "attacker share {attackers}/{users}"
        );
        for &ap in &topo.access_points {
            assert_eq!(topo.graph.role(ap), Role::AccessPoint);
        }
    }

    #[test]
    #[should_panic(expected = "at least 16")]
    fn tiny_fleet_rejected() {
        FleetSpec::sized(8);
    }
}
