//! Space partitioning for sharded parallel simulation.
//!
//! A [`ShardMap`] splits a [`Topology`] into `k` shards so that one
//! engine per shard can run conservatively synchronized epochs: the
//! router graph is divided by multi-seed BFS/greedy growth (balancing the
//! *downstream user weight* each router carries, which tracks event load
//! far better than raw router counts), and every non-router node is
//! pinned to the shard of its attachment router — an access point lands
//! with its edge router and carries its whole client fleet with it, so
//! the chatty wireless hops never cross a shard boundary. The only links
//! crossing shards are router–router trunks, whose minimum latency is the
//! conservative lookahead bound exposed via [`ShardMap::min_cut_latency`].

use tactic_sim::time::SimDuration;

use crate::graph::{NodeId, Role};
use crate::roles::Topology;

/// Why a topology could not be partitioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardError {
    /// Zero shards requested.
    ZeroShards,
    /// More shards than routers: some shard would own no router (and
    /// therefore no traffic) — rejected instead of silently produced.
    TooManyShards {
        /// Shards requested.
        requested: usize,
        /// Routers available to seed them.
        routers: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ShardError::ZeroShards => write!(f, "shard count must be at least 1"),
            ShardError::TooManyShards { requested, routers } => write!(
                f,
                "cannot split {routers} routers into {requested} shards: \
                 every shard must own at least one router"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// A complete node→shard assignment with its derived statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Number of shards.
    pub k: usize,
    /// Per node (indexed by `NodeId::index()`): the owning shard.
    pub shard_of: Vec<u32>,
    /// Undirected links whose endpoints live in different shards.
    pub edge_cut: u64,
    /// Minimum propagation latency over cut links (`None` when the cut is
    /// empty — e.g. `k = 1` — meaning unbounded lookahead).
    pub min_cut_latency: Option<SimDuration>,
    /// Minimum propagation latency over *all* links. Under mobility a
    /// handover can point any client at any access point, so wireless
    /// hops may cross shards dynamically; this is the lookahead bound for
    /// mobile runs.
    pub min_link_latency: Option<SimDuration>,
}

impl ShardMap {
    /// Partitions `topo` into `k` shards (see module docs for the
    /// strategy).
    ///
    /// # Errors
    ///
    /// [`ShardError::ZeroShards`] for `k == 0`;
    /// [`ShardError::TooManyShards`] when `k` exceeds the router count.
    pub fn partition(topo: &Topology, k: usize) -> Result<ShardMap, ShardError> {
        if k == 0 {
            return Err(ShardError::ZeroShards);
        }
        let routers: Vec<NodeId> = topo.routers().collect();
        if k > routers.len() {
            return Err(ShardError::TooManyShards {
                requested: k,
                routers: routers.len(),
            });
        }
        let n = topo.graph.node_count();
        let is_router = {
            let mut v = vec![false; n];
            for &r in &routers {
                v[r.index()] = true;
            }
            v
        };

        // Router weight = 1 + attached providers + per attached AP its
        // client fleet (AP + everything wired to it besides the router).
        let weight: Vec<u64> = (0..n)
            .map(|i| {
                let node = NodeId::from_index(i);
                if !is_router[i] {
                    return 0;
                }
                let mut w = 1u64;
                for peer in topo.graph.neighbors(node) {
                    match topo.graph.role(peer) {
                        Role::AccessPoint => w += topo.graph.degree(peer) as u64,
                        Role::Provider => w += 1,
                        _ => {}
                    }
                }
                w
            })
            .collect();
        let total_weight: u64 = weight.iter().sum();
        let cap = total_weight.div_ceil(k as u64);

        // Deterministic BFS order over the router subgraph from the
        // lowest-id router, then k seeds spaced evenly along it (distant
        // seeds grow disjoint regions, which is what keeps the cut small).
        let bfs_order = router_bfs_order(topo, &routers, &is_router);
        let mut shard_of = vec![u32::MAX; n];
        let mut shard_weight = vec![0u64; k];
        let mut frontiers: Vec<std::collections::VecDeque<NodeId>> = (0..k)
            .map(|s| {
                let seed = bfs_order[s * bfs_order.len() / k];
                std::collections::VecDeque::from([seed])
            })
            .collect();
        // Claim seeds up front so no shard can steal another's seed.
        for (s, f) in frontiers.iter_mut().enumerate() {
            let seed = f.pop_front().expect("seeded above");
            shard_of[seed.index()] = s as u32;
            shard_weight[s] += weight[seed.index()];
            for peer in topo.graph.neighbors(seed) {
                if is_router[peer.index()] && shard_of[peer.index()] == u32::MAX {
                    f.push_back(peer);
                }
            }
        }
        // Round-robin greedy growth: each shard in turn claims the next
        // unassigned router on its frontier while it is under the weight
        // cap. A shard at its cap simply stops claiming; leftovers are
        // mopped up below.
        let mut assigned = k;
        let mut progress = true;
        while assigned < routers.len() && progress {
            progress = false;
            for s in 0..k {
                if shard_weight[s] >= cap {
                    continue;
                }
                while let Some(node) = frontiers[s].pop_front() {
                    if shard_of[node.index()] != u32::MAX {
                        continue;
                    }
                    shard_of[node.index()] = s as u32;
                    shard_weight[s] += weight[node.index()];
                    assigned += 1;
                    progress = true;
                    for peer in topo.graph.neighbors(node) {
                        if is_router[peer.index()] && shard_of[peer.index()] == u32::MAX {
                            frontiers[s].push_back(peer);
                        }
                    }
                    break;
                }
            }
        }
        // Routers no frontier reached (capped shards, disconnected
        // components): assign each, in id order, to the lightest shard.
        for &r in &routers {
            if shard_of[r.index()] == u32::MAX {
                let s = (0..k)
                    .min_by_key(|&s| (shard_weight[s], s))
                    .expect("k >= 1");
                shard_of[r.index()] = s as u32;
                shard_weight[s] += weight[r.index()];
            }
        }

        // Non-routers follow their attachment: APs (and through them every
        // client/attacker) to their edge router, providers to their
        // gateway router.
        for node in topo.graph.nodes() {
            let s = match topo.graph.role(node) {
                Role::CoreRouter | Role::EdgeRouter => continue,
                Role::AccessPoint => shard_of[edge_router_of_ap(topo, node).index()],
                Role::Provider => shard_of[topo.gateway_of(node).index()],
                Role::Client | Role::Attacker => {
                    let ap = topo.access_point_of(node);
                    shard_of[edge_router_of_ap(topo, ap).index()]
                }
            };
            shard_of[node.index()] = s;
        }

        let mut edge_cut = 0u64;
        let mut min_cut: Option<SimDuration> = None;
        let mut min_link: Option<SimDuration> = None;
        for li in 0..topo.graph.link_count() {
            let link = topo.graph.link(crate::graph::LinkId::from_index(li));
            let lat = link.spec.latency;
            min_link = Some(min_link.map_or(lat, |m| m.min(lat)));
            if shard_of[link.a.index()] != shard_of[link.b.index()] {
                edge_cut += 1;
                min_cut = Some(min_cut.map_or(lat, |m| m.min(lat)));
            }
        }

        Ok(ShardMap {
            k,
            shard_of,
            edge_cut,
            min_cut_latency: min_cut,
            min_link_latency: min_link,
        })
    }

    /// The conservative lookahead for epoch synchronization: any event a
    /// shard processes at time `t` can only create work for another shard
    /// at `t + lookahead` or later. Static runs are bounded by the cut
    /// links; mobile runs by every link (handovers re-point radio links
    /// across shards at will). `None` means no cross-shard path exists at
    /// all — a single epoch suffices.
    pub fn lookahead(&self, mobility: bool) -> Option<SimDuration> {
        if self.k == 1 {
            return None;
        }
        match (self.min_cut_latency, mobility) {
            (None, false) => None,
            (cut, true) => match (cut, self.min_link_latency) {
                (Some(c), Some(l)) => Some(c.min(l)),
                (c, l) => c.or(l),
            },
            (cut, false) => cut,
        }
    }

    /// The owning shard of `node`.
    pub fn shard_of(&self, node: NodeId) -> u32 {
        self.shard_of[node.index()]
    }
}

/// The edge router an access point is wired to.
fn edge_router_of_ap(topo: &Topology, ap: NodeId) -> NodeId {
    topo.graph
        .neighbors(ap)
        .find(|&n| matches!(topo.graph.role(n), Role::EdgeRouter | Role::CoreRouter))
        .expect("access point must connect to a router")
}

/// BFS order over the router-induced subgraph starting from the lowest-id
/// router; unreachable routers are appended in id order so the result
/// always covers every router exactly once.
fn router_bfs_order(topo: &Topology, routers: &[NodeId], is_router: &[bool]) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(routers.len());
    let mut seen = vec![false; topo.graph.node_count()];
    let mut queue = std::collections::VecDeque::new();
    let start = *routers.iter().min().expect("at least one router");
    seen[start.index()] = true;
    queue.push_back(start);
    while let Some(node) = queue.pop_front() {
        order.push(node);
        for peer in topo.graph.neighbors(node) {
            if is_router[peer.index()] && !seen[peer.index()] {
                seen[peer.index()] = true;
                queue.push_back(peer);
            }
        }
    }
    for &r in routers {
        if !seen[r.index()] {
            seen[r.index()] = true;
            order.push(r);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::{build_topology, TopologySpec};
    use tactic_sim::rng::Rng;

    /// Nodes per shard (panics on an out-of-range shard id).
    fn shard_sizes(map: &ShardMap) -> Vec<usize> {
        let mut sizes = vec![0; map.k];
        for &s in &map.shard_of {
            sizes[s as usize] += 1;
        }
        sizes
    }

    fn topo() -> Topology {
        build_topology(
            &TopologySpec {
                core_routers: 12,
                edge_routers: 4,
                providers: 2,
                clients: 8,
                attackers: 2,
            },
            &mut Rng::seed_from_u64(7),
        )
    }

    #[test]
    fn every_node_lands_in_a_shard_and_no_shard_is_empty() {
        let t = topo();
        for k in [1, 2, 4, 8] {
            let map = ShardMap::partition(&t, k).unwrap();
            assert_eq!(map.k, k);
            assert_eq!(map.shard_of.len(), t.graph.node_count());
            let sizes = shard_sizes(&map);
            assert_eq!(sizes.iter().sum::<usize>(), t.graph.node_count());
            assert!(sizes.iter().all(|&n| n > 0), "empty shard: {sizes:?}");
        }
    }

    #[test]
    fn aps_carry_their_client_fleets() {
        let t = topo();
        let map = ShardMap::partition(&t, 4).unwrap();
        for &c in t.clients.iter().chain(&t.attackers) {
            let ap = t.access_point_of(c);
            assert_eq!(
                map.shard_of(c),
                map.shard_of(ap),
                "client and its AP must be co-located"
            );
        }
        for &ap in &t.access_points {
            assert_eq!(
                map.shard_of(ap),
                map.shard_of(edge_router_of_ap(&t, ap)),
                "AP must live with its edge router"
            );
        }
    }

    #[test]
    fn single_shard_is_identity() {
        let t = topo();
        let map = ShardMap::partition(&t, 1).unwrap();
        assert!(map.shard_of.iter().all(|&s| s == 0));
        assert_eq!(map.edge_cut, 0);
        assert_eq!(map.min_cut_latency, None);
        assert_eq!(map.lookahead(false), None);
        assert_eq!(map.lookahead(true), None);
    }

    #[test]
    fn cut_links_are_router_to_router_only() {
        let t = topo();
        let map = ShardMap::partition(&t, 4).unwrap();
        assert!(map.edge_cut > 0, "4 shards over one core must cut links");
        for li in 0..t.graph.link_count() {
            let link = t.graph.link(crate::graph::LinkId::from_index(li));
            if map.shard_of[link.a.index()] != map.shard_of[link.b.index()] {
                for end in [link.a, link.b] {
                    assert!(
                        matches!(t.graph.role(end), Role::CoreRouter | Role::EdgeRouter),
                        "cut link touches a non-router: {:?}",
                        t.graph.role(end)
                    );
                }
            }
        }
        assert!(map.min_cut_latency.unwrap() >= SimDuration::from_millis(1));
        assert!(map.lookahead(false).unwrap() >= SimDuration::from_millis(1));
        assert!(map.lookahead(true).unwrap() <= map.lookahead(false).unwrap());
    }

    #[test]
    fn rejects_zero_and_oversized_shard_counts() {
        let t = topo();
        assert_eq!(ShardMap::partition(&t, 0), Err(ShardError::ZeroShards));
        let routers = t.routers().count();
        assert_eq!(
            ShardMap::partition(&t, routers + 1),
            Err(ShardError::TooManyShards {
                requested: routers + 1,
                routers,
            })
        );
        assert!(ShardMap::partition(&t, routers).is_ok());
    }

    #[test]
    fn shard_weights_are_balanced() {
        let t = topo();
        let map = ShardMap::partition(&t, 4).unwrap();
        let sizes = shard_sizes(&map);
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(min >= 1, "no shard may be empty: {sizes:?}");
        assert!(
            max <= 4 * min.max(1) + t.graph.node_count() / 2,
            "grossly imbalanced shards: {sizes:?}"
        );
    }
}
