//! Face tables and FIB population — the wiring every simulation plane
//! derives from a [`Topology`] in exactly the same way.
//!
//! Node *n*'s *k*-th incident link is its face *k*. [`populate_fib`] runs
//! one Dijkstra per provider over the forwarding core (every node but the
//! single-link users; see `tactic_topology::routing`) and builds each
//! provider's rows as its tree completes, so building costs the rows
//! installed plus a constant per node, not providers × nodes.
//! `crates/topology/tests/core_routing.rs` holds the core's routes against
//! an all-nodes Dijkstra.

use tactic_ndn::face::FaceId;
use tactic_ndn::name::Name;
use tactic_ndn::records::Records;
use tactic_topology::graph::{LinkSpec, NodeId};
use tactic_topology::roles::Topology;
use tactic_topology::routing::Core;
use tactic_topology::shard::ShardMap;

/// Per-node face tables derived from a topology's adjacency order.
///
/// Node `n`'s `k`-th incident link becomes its face `k`; the reverse map
/// answers "which local face leads to peer `p`?". A table holds one row
/// per node of one shard, indexed by the node's slot
/// ([`ShardMap::slot`]): [`Links::build`] makes the one-shard table,
/// whose row of a node is its id, and [`Links::split`] deals it out to
/// the shards of a map. The transport mutates
/// these tables during handovers, so a face that existed at build time may
/// later dangle (its reverse mapping removed) — exactly how a radio link
/// disappears under a mobile client.
///
/// The reverse map is stored flat — per node, a list of `(peer, face)`
/// kept sorted by peer id and probed by binary search — instead of a
/// per-node `HashMap`. It sits on the transmit path of every packet, and
/// at 10⁵–10⁶ nodes the hashing plus pointer-chasing of a million small
/// maps is the dominant per-event cost. Both tables' rows are
/// [`Records`]: a user — most of a fleet — has one link, and its one
/// neighbour and its one face stay inside the row instead of in a heap
/// block each.
#[derive(Debug, Clone, PartialEq)]
pub struct Links {
    /// Per row, per face index: `(neighbour, link spec)`.
    pub neighbors: Vec<Records<(NodeId, LinkSpec)>>,
    /// Per row: `(neighbour, local face)` sorted by neighbour id.
    face_index: Vec<Records<(NodeId, FaceId)>>,
}

impl Links {
    /// Builds the face tables of every node of `topo` from its adjacency
    /// order, node `n` in row `n`.
    pub fn build(topo: &Topology) -> Links {
        let n = topo.graph.node_count();
        let mut neighbors: Vec<Records<(NodeId, LinkSpec)>> = rows(n);
        let mut face_index: Vec<Records<(NodeId, FaceId)>> = rows(n);
        for node in topo.graph.nodes() {
            for (peer, link_id) in topo.graph.incident(node) {
                let spec = topo.graph.link(link_id).spec;
                let face = FaceId::new(neighbors[node.index()].len() as u32);
                neighbors[node.index()].push((peer, spec));
                face_index[node.index()].push((peer, face));
            }
            face_index[node.index()].sort_unstable_by_key(|&(peer, _)| peer);
        }
        Links {
            neighbors,
            face_index,
        }
    }

    /// The local face of the node in `row` that currently leads to `peer`.
    pub fn face_toward(&self, row: usize, peer: NodeId) -> Option<FaceId> {
        let table = &self.face_index[row];
        table
            .binary_search_by_key(&peer, |&(p, _)| p)
            .ok()
            .map(|i| table[i].1)
    }

    /// Points the reverse map of the node in `row` at `face` for `peer`,
    /// replacing any previous mapping for that peer.
    pub fn set_face_toward(&mut self, row: usize, peer: NodeId, face: FaceId) {
        let table = &mut self.face_index[row];
        match table.binary_search_by_key(&peer, |&(p, _)| p) {
            Ok(i) => table[i].1 = face,
            Err(i) => table.insert(i, (peer, face)),
        }
    }

    /// Drops every reverse mapping of the node in `row` (a handover tears
    /// down the old radio link before wiring the new one).
    pub fn clear_faces(&mut self, row: usize) {
        self.face_index[row].clear();
    }

    /// Deals a table of every node's row, as [`Links::build`] makes it,
    /// out to the shards of `map`: each shard's table holds the rows of
    /// the nodes it owns and no other, in slot order. The rows move, none
    /// is copied; shard 0's table is this one compacted in place, so one
    /// shard takes the table as it is.
    ///
    /// # Panics
    ///
    /// Panics if this table does not hold one row per node of `map`.
    pub fn split(mut self, map: &ShardMap) -> Vec<Links> {
        assert_eq!(
            self.neighbors.len(),
            map.shard_of.len(),
            "a table of every node's row"
        );
        let with_rows = |n: usize| Links {
            neighbors: Vec::with_capacity(n),
            face_index: Vec::with_capacity(n),
        };
        let mut parts = Vec::with_capacity(map.k);
        // Shard 0's place, which this table takes once compacted.
        parts.push(with_rows(0));
        parts.extend(map.owned[1..].iter().map(|&n| with_rows(n as usize)));
        let mut kept = 0;
        for (i, &owner) in map.shard_of.iter().enumerate() {
            if owner == 0 {
                self.neighbors.swap(kept, i);
                self.face_index.swap(kept, i);
                kept += 1;
            } else {
                let part = &mut parts[owner as usize];
                part.neighbors.push(std::mem::take(&mut self.neighbors[i]));
                part.face_index
                    .push(std::mem::take(&mut self.face_index[i]));
            }
        }
        self.neighbors.truncate(kept);
        self.neighbors.shrink_to_fit();
        self.face_index.truncate(kept);
        self.face_index.shrink_to_fit();
        parts[0] = self;
        parts
    }
}

/// `n` empty rows.
pub(crate) fn rows<T>(n: usize) -> Vec<Records<T>> {
    (0..n).map(|_| Records::default()).collect()
}

/// The shared content-prefix convention: provider `i` serves `/prov{i}`.
pub fn provider_prefix(i: usize) -> Name {
    format!("/prov{i}").parse().expect("static prefix")
}

/// One FIB entry: `router` reaches `prefix` (provider index `provider`)
/// through `face` at `cost_us`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FibRoute {
    /// The router owning the entry.
    pub router: NodeId,
    /// Provider index (into `topo.providers`).
    pub provider: usize,
    /// The provider's content prefix.
    pub prefix: Name,
    /// Out face toward the provider.
    pub face: FaceId,
    /// Path cost in microseconds of latency.
    pub cost_us: u32,
}

/// Computes every router's FIB entry toward every provider — one Dijkstra
/// per provider over the link-latency metric.
///
/// The order is providers-outer, routers-inner (core routers before edge
/// routers), which callers may rely on for determinism.
///
/// The per-provider Dijkstras run in parallel over the topology's one
/// forwarding [`Core`], each worker on a contiguous run of providers.
/// A worker turns each provider's shortest-path tree into that
/// provider's rows at once and drops the tree, and the runs are joined
/// in provider order, so the output is byte-identical to a sequential
/// loop and no more than one tree per worker is ever held.
pub fn populate_fib(topo: &Topology, links: &Links) -> Vec<FibRoute> {
    let core = Core::new(&topo.graph, &topo.providers);
    let providers = topo.providers.len();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(providers);
    if threads <= 1 {
        return fib_rows(topo, links, &core, 0..providers, |_, _| true, row_of_id);
    }
    let chunk = providers.div_ceil(threads);
    std::thread::scope(|scope| {
        let core = &core;
        let workers: Vec<_> = (0..providers)
            .step_by(chunk)
            .map(|start| {
                let run = start..(start + chunk).min(providers);
                scope.spawn(move || fib_rows(topo, links, core, run, |_, _| true, row_of_id))
            })
            .collect();
        let mut runs = workers
            .into_iter()
            .map(|worker| worker.join().expect("routing worker"));
        let mut out = runs.next().unwrap_or_default();
        for rows in runs {
            out.extend(rows);
        }
        out
    })
}

/// [`populate_fib`] restricted to links for which `usable(a, b)` holds —
/// the routing recomputation the transport performs at scheduled failure
/// instants. Routers cut off from a provider simply get no entry for it.
///
/// Same deterministic order as [`populate_fib`] (providers-outer,
/// routers-inner).
pub fn fib_routes_filtered<F>(topo: &Topology, links: &Links, usable: F) -> Vec<FibRoute>
where
    F: FnMut(NodeId, NodeId) -> bool,
{
    fib_routes_owned(topo, links, usable, row_of_id)
}

/// The row of `node` in a table of every node's row.
fn row_of_id(node: NodeId) -> Option<usize> {
    Some(node.index())
}

/// [`fib_routes_filtered`] for the routers `links` has a row for, which
/// `row_of` names (a shard's table has its own routers' rows only).
pub(crate) fn fib_routes_owned(
    topo: &Topology,
    links: &Links,
    usable: impl FnMut(NodeId, NodeId) -> bool,
    row_of: impl Fn(NodeId) -> Option<usize>,
) -> Vec<FibRoute> {
    let core = Core::new(&topo.graph, &topo.providers);
    fib_rows(topo, links, &core, 0..topo.providers.len(), usable, row_of)
}

/// The FIB entries toward providers `run` (indices into `topo.providers`)
/// of the routers `row_of` finds a row of `links` for, one shortest-path
/// tree at a time.
fn fib_rows(
    topo: &Topology,
    links: &Links,
    core: &Core,
    run: std::ops::Range<usize>,
    mut usable: impl FnMut(NodeId, NodeId) -> bool,
    row_of: impl Fn(NodeId) -> Option<usize>,
) -> Vec<FibRoute> {
    let routers: Vec<(NodeId, usize)> = (topo.routers())
        .filter_map(|r| Some((r, row_of(r)?)))
        .collect();
    let mut out = Vec::with_capacity(run.len() * routers.len());
    for provider in run {
        let routes = core.routes_toward(topo.providers[provider], &mut usable);
        let prefix = provider_prefix(provider);
        for &(router, row) in &routers {
            if let Some(entry) = routes.get(router) {
                let face = links
                    .face_toward(row, entry.next_hop)
                    .expect("route next hop is a wired neighbour");
                let cost_us = (entry.cost.as_nanos() / 1_000).min(u32::MAX as u64) as u32;
                out.push(FibRoute {
                    router,
                    provider,
                    prefix: prefix.clone(),
                    face,
                    cost_us,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tactic_sim::rng::Rng;
    use tactic_topology::fleet::FleetSpec;
    use tactic_topology::roles::{build_topology, TopologySpec};

    fn topo() -> Topology {
        build_topology(
            &TopologySpec {
                core_routers: 10,
                edge_routers: 3,
                providers: 2,
                clients: 4,
                attackers: 2,
            },
            &mut Rng::seed_from_u64(9),
        )
    }

    /// The `(neighbour, link spec)` the face of `route` points at, if wired.
    fn peer_of(links: &Links, route: &FibRoute) -> Option<(NodeId, LinkSpec)> {
        let row = &links.neighbors[route.router.index()];
        row.get(route.face.index() as usize).copied()
    }

    #[test]
    fn faces_follow_adjacency_order() {
        let t = topo();
        let links = Links::build(&t);
        for node in t.graph.nodes() {
            assert_eq!(links.neighbors[node.index()].len(), t.graph.degree(node));
            for (idx, &(peer, _)) in links.neighbors[node.index()].iter().enumerate() {
                assert_eq!(
                    links.face_toward(node.index(), peer),
                    Some(FaceId::new(idx as u32)),
                    "face index must invert the adjacency order"
                );
            }
        }
    }

    #[test]
    fn fib_covers_every_router_provider_pair() {
        let t = topo();
        let links = Links::build(&t);
        let entries = populate_fib(&t, &links);
        for route in &entries {
            assert!(route.provider < 2);
            assert_eq!(route.prefix, provider_prefix(route.provider));
            assert!(peer_of(&links, route).is_some());
            assert!(route.cost_us > 0, "a multi-hop path has positive cost");
        }
        // The graph is connected: every router routes toward every provider.
        assert_eq!(entries.len(), 13 * 2);
    }

    #[test]
    fn parallel_populate_matches_sequential_filtered_path() {
        // Four providers, so the fleet's rows come from several workers.
        let spec = FleetSpec {
            provider_share: 0.02,
            ..FleetSpec::sized(2_000)
        };
        let fleet = build_topology(&spec.to_table_spec(), &mut Rng::seed_from_u64(7));
        assert_eq!(fleet.providers.len(), 4);
        for t in [topo(), fleet] {
            let links = Links::build(&t);
            let parallel = populate_fib(&t, &links);
            let sequential = fib_routes_filtered(&t, &links, |_, _| true);
            assert_eq!(parallel.len(), t.routers().count() * t.providers.len());
            assert_eq!(parallel, sequential, "same entries in the same order");
        }
    }

    #[test]
    fn each_shard_takes_exactly_the_rows_of_its_own_nodes() {
        let t = topo();
        let full = Links::build(&t);
        for k in [1, 2, 3] {
            let map = ShardMap::partition(&t, k).unwrap();
            let parts = full.clone().split(&map);
            assert_eq!(parts.len(), k);
            for (s, part) in parts.iter().enumerate() {
                let members: Vec<NodeId> = map.members(s as u32).collect();
                assert_eq!(part.neighbors.len(), members.len());
                for (row, node) in members.into_iter().enumerate() {
                    assert_eq!(part.neighbors[row], full.neighbors[node.index()]);
                    assert_eq!(part.face_index[row], full.face_index[node.index()]);
                }
            }
        }
        let map = ShardMap::partition(&t, 1).unwrap();
        assert_eq!(full.clone().split(&map), [full]);
    }

    #[test]
    fn build_is_deterministic() {
        let t = topo();
        assert_eq!(Links::build(&t), Links::build(&t));
    }

    #[test]
    fn filtered_routes_avoid_unusable_links() {
        let t = topo();
        let links = Links::build(&t);
        let full = fib_routes_filtered(&t, &links, |_, _| true);
        assert_eq!(full.len(), 13 * 2, "unfiltered = populate_fib coverage");

        // Cut every link touching provider 0's attachment: routers lose
        // their `/prov0` entries but keep `/prov1` (graph stays connected
        // enough for the other provider in this topology or drops some
        // routers — either way no entry may use a cut link).
        let p0 = t.providers[0];
        let cut = fib_routes_filtered(&t, &links, |a, b| a != p0 && b != p0);
        assert!(cut.len() < full.len());
        for route in &cut {
            assert_ne!(route.provider, 0, "provider 0 is unreachable");
            let (peer, _) = peer_of(&links, route).expect("wired");
            assert_ne!(peer, p0, "no route may traverse a cut link");
        }
    }
}
