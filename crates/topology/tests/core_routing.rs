//! Differential test of the core Dijkstra: on every kind of topology the
//! repo builds, with and without link filters, each router's next hop
//! and cost toward each provider equal what a Dijkstra over every node
//! of the graph gives.

use proptest::prelude::*;

use tactic_sim::rng::Rng;
use tactic_sim::time::SimDuration;
use tactic_topology::fleet::FleetSpec;
use tactic_topology::graph::{Graph, LinkSpec, NodeId, Role};
use tactic_topology::paper::PaperTopology;
use tactic_topology::roles::{build_topology, Topology, TopologySpec};
use tactic_topology::routing::{Core, RouteEntry};

/// The reference: Dijkstra from `target` over every node of the graph,
/// users included, with the core's relaxation rule and tie-break.
fn all_nodes_dijkstra(
    graph: &Graph,
    target: NodeId,
    mut usable: impl FnMut(NodeId, NodeId) -> bool,
) -> Vec<Option<RouteEntry>> {
    let n = graph.node_count();
    let mut dist: Vec<Option<SimDuration>> = vec![None; n];
    let mut next: Vec<Option<NodeId>> = vec![None; n];
    let mut heap = std::collections::BinaryHeap::new();
    dist[target.index()] = Some(SimDuration::ZERO);
    heap.push(std::cmp::Reverse((SimDuration::ZERO, target)));
    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        if dist[u.index()] != Some(d) {
            continue;
        }
        for (v, link_id) in graph.incident(u) {
            if !usable(u, v) {
                continue;
            }
            let cand = d + graph.link(link_id).spec.latency;
            let better = match dist[v.index()] {
                None => true,
                Some(cur) => cand < cur || (cand == cur && Some(u) < next[v.index()]),
            };
            if better {
                dist[v.index()] = Some(cand);
                next[v.index()] = Some(u);
                heap.push(std::cmp::Reverse((cand, v)));
            }
        }
    }
    (0..n)
        .map(|i| match (next[i], dist[i]) {
            (Some(next_hop), Some(cost)) if i != target.index() => {
                Some(RouteEntry { next_hop, cost })
            }
            _ => None,
        })
        .collect()
}

/// A well-mixed hash of `x` (SplitMix64's finaliser).
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The link filters a topology is checked under.
#[derive(Debug, Clone, Copy)]
enum Filter {
    /// Every link usable.
    All,
    /// Each link, both directions alike, down with probability 1/`n`.
    Symmetric(u64, u64),
    /// Each direction of each link down with probability 1/`n`.
    Asymmetric(u64, u64),
}

impl Filter {
    fn usable(self, a: NodeId, b: NodeId) -> bool {
        let pair = |x: NodeId, y: NodeId| (u64::from(x.0) << 32) | u64::from(y.0);
        match self {
            Filter::All => true,
            Filter::Symmetric(seed, n) => !mix(seed ^ pair(a.min(b), a.max(b))).is_multiple_of(n),
            Filter::Asymmetric(seed, n) => !mix(seed ^ pair(a, b)).is_multiple_of(n),
        }
    }
}

/// Checks every router's core route toward every provider against the
/// reference under `filter`.
fn assert_matches_reference(topo: &Topology, filter: Filter) {
    let core = Core::new(&topo.graph, &topo.providers);
    for &provider in &topo.providers {
        let usable = |a, b| filter.usable(a, b);
        let reference = all_nodes_dijkstra(&topo.graph, provider, usable);
        let routes = core.routes_toward(provider, usable);
        for router in topo.routers() {
            assert_eq!(
                routes.get(router),
                reference[router.index()],
                "router {router} toward provider {provider} under {filter:?}"
            );
        }
    }
}

fn every_filter(topo: &Topology, seed: u64) {
    for filter in [
        Filter::All,
        Filter::Symmetric(seed, 5),
        Filter::Asymmetric(seed, 5),
        Filter::Symmetric(seed ^ 1, 2),
        Filter::Asymmetric(seed ^ 1, 2),
    ] {
        assert_matches_reference(topo, filter);
    }
}

/// Hangs `pendants` degree-1 core routers off random routers, over links
/// of a few latencies so that some paths tie and some do not.
fn with_pendant_routers(mut topo: Topology, pendants: usize, rng: &mut Rng) -> Topology {
    for i in 0..pendants {
        let routers: Vec<NodeId> = topo.routers().collect();
        let host = routers[rng.below_usize(routers.len())];
        let leaf = topo.graph.add_node(Role::CoreRouter);
        let spec = LinkSpec {
            latency: SimDuration::from_micros(20 + 490 * (i as u64 % 3)),
            ..LinkSpec::core()
        };
        topo.graph.add_link(leaf, host, spec);
        topo.core_routers.push(leaf);
    }
    topo
}

fn arb_spec() -> impl Strategy<Value = TopologySpec> {
    (3usize..20, 1usize..6, 1usize..5, 0usize..24, 0usize..6).prop_map(
        |(core, edge, prov, clients, attackers)| TopologySpec {
            core_routers: core,
            edge_routers: edge,
            providers: prov,
            clients,
            attackers,
        },
    )
}

proptest! {
    #[test]
    fn core_routes_match_an_all_nodes_dijkstra(
        spec in arb_spec(), seed in any::<u64>(), pendants in 0usize..5,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let topo = build_topology(&spec, &mut rng);
        let topo = with_pendant_routers(topo, pendants, &mut rng);
        every_filter(&topo, seed);
    }
}

#[test]
fn degree_one_core_routers_get_their_routes() {
    let mut rng = Rng::seed_from_u64(5);
    let spec = PaperTopology::Topo1.spec();
    let topo = with_pendant_routers(build_topology(&spec, &mut rng), 6, &mut rng);
    let leaves = topo.routers().filter(|&r| topo.graph.degree(r) == 1);
    assert_eq!(leaves.count(), 6);
    assert_matches_reference(&topo, Filter::All);
}

#[test]
fn paper_presets_match_an_all_nodes_dijkstra() {
    for preset in PaperTopology::ALL {
        for seed in [1, 7, 42] {
            every_filter(&preset.build(seed), seed);
        }
    }
}

#[test]
fn fleets_match_an_all_nodes_dijkstra() {
    let topo = build_topology(
        &FleetSpec::sized(2_000).to_table_spec(),
        &mut Rng::seed_from_u64(7),
    );
    every_filter(&topo, 7);
    let topo = build_topology(
        &FleetSpec::sized(30_000).to_table_spec(),
        &mut Rng::seed_from_u64(7),
    );
    assert_matches_reference(&topo, Filter::All);
    assert_matches_reference(&topo, Filter::Asymmetric(7, 10));
}
