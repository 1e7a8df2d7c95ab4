//! # tactic-topology
//!
//! Network topologies for the TACTIC reproduction: Barabási–Albert
//! scale-free router graphs, the paper's role hierarchy (core routers,
//! designated edge routers, access points, providers, clients, attackers
//! — Fig. 1), latency-weighted shortest-path routing, and the four
//! Table III presets.
//!
//! # Examples
//!
//! ```
//! use tactic_topology::paper::PaperTopology;
//!
//! let topo = PaperTopology::Topo1.build(42);
//! assert_eq!(topo.core_routers.len(), 80);
//! assert_eq!(topo.providers.len(), 10);
//! assert!(topo.graph.is_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod graph;
pub mod paper;
pub mod roles;
pub mod routing;
pub mod scale_free;
pub mod shard;

pub use graph::{Graph, Link, LinkId, LinkSpec, NodeId, Role};
pub use paper::{PaperTopology, TopologyChoice};
pub use roles::{build_topology, Topology, TopologySpec};
pub use shard::{ShardError, ShardMap};
