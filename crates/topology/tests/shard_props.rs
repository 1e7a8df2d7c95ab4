//! Property-based tests for the shard partitioner: on arbitrary generated
//! topologies, a `ShardMap` must be a true partition, keep every client
//! fleet co-located with its access point, and degenerate to the identity
//! at K = 1.

use proptest::prelude::*;

use tactic_sim::rng::Rng;
use tactic_topology::roles::{build_topology, TopologySpec};
use tactic_topology::shard::{ShardError, ShardMap};
use tactic_topology::Role;

fn arb_spec() -> impl Strategy<Value = TopologySpec> {
    (4usize..20, 2usize..6, 1usize..4, 0usize..24, 0usize..6).prop_map(
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
    fn shard_map_is_a_true_partition(spec in arb_spec(), seed in any::<u64>(), k in 1usize..6) {
        let topo = build_topology(&spec, &mut Rng::seed_from_u64(seed));
        prop_assume!(k <= spec.routers());
        let map = ShardMap::partition(&topo, k).unwrap();
        prop_assert_eq!(map.k, k);
        prop_assert_eq!(map.shard_of.len(), topo.graph.node_count());
        // Every node has one owner among the K shards, and no shard is
        // empty: each owns at least one router.
        let mut routers = vec![0u32; k];
        for node in topo.graph.nodes() {
            let s = map.shard_of(node) as usize;
            prop_assert!(s < k);
            if matches!(topo.graph.role(node), Role::CoreRouter | Role::EdgeRouter) {
                routers[s] += 1;
            }
        }
        prop_assert!(routers.iter().all(|&r| r > 0));
    }

    #[test]
    fn clients_are_colocated_with_their_access_point(
        spec in arb_spec(), seed in any::<u64>(), k in 1usize..6,
    ) {
        let topo = build_topology(&spec, &mut Rng::seed_from_u64(seed));
        prop_assume!(k <= spec.routers());
        let map = ShardMap::partition(&topo, k).unwrap();
        for user in topo.users() {
            let ap = topo.access_point_of(user);
            prop_assert_eq!(map.shard_of(user), map.shard_of(ap));
        }
    }

    #[test]
    fn single_shard_is_the_identity(spec in arb_spec(), seed in any::<u64>()) {
        let topo = build_topology(&spec, &mut Rng::seed_from_u64(seed));
        let map = ShardMap::partition(&topo, 1).unwrap();
        prop_assert!(map.shard_of.iter().all(|&s| s == 0));
        prop_assert_eq!(map.shard_of.len(), topo.graph.node_count());
        prop_assert_eq!(map.edge_cut, 0);
        prop_assert_eq!(map.lookahead(true), None);
    }

    #[test]
    fn oversized_k_is_a_typed_error(spec in arb_spec(), seed in any::<u64>(), extra in 1usize..5) {
        let topo = build_topology(&spec, &mut Rng::seed_from_u64(seed));
        let requested = spec.routers() + extra;
        prop_assert_eq!(
            ShardMap::partition(&topo, requested),
            Err(ShardError::TooManyShards { requested, routers: spec.routers() })
        );
    }
}
