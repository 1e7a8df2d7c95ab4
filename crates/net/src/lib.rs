//! # tactic-net
//!
//! The simulation **transport plane** shared by every mechanism the
//! workspace evaluates. The TACTIC routers (`tactic::net`) and the
//! baseline mechanisms (`tactic_baselines::net`) both run on *this* event
//! loop, so "same topologies, link models, and workload" is a structural
//! guarantee rather than a doc-comment promise — mirroring how
//! access-control schemes are normally evaluated against one common CCN
//! forwarding substrate instead of per-scheme simulators.
//!
//! The crate owns everything that is mechanism-independent:
//!
//! * [`links`] — face tables from adjacency order and FIB population
//!   (one Dijkstra per provider);
//! * [`transport`] — the [`Engine`](tactic_sim::engine::Engine)-driven
//!   event loop, FIFO link serialisation + propagation, and the
//!   mobility/handover model;
//! * [`plane`] — the [`NodePlane`] callback interface between the loop
//!   and whatever node logic it drives;
//! * [`harness`] — everything about assembling and running a mechanism
//!   that is not mechanism logic: world construction, the scenario →
//!   [`NetConfig`] derivation, the one hosted [`NodePlane`] with the
//!   bookkeeping every mechanism shares, and [`harness::run`] — one
//!   function for any shard count. A mechanism implements
//!   [`harness::Plane`] and nothing else;
//! * [`observer`] — the [`NetObserver`] hook layer:
//!   per-event tracing, link-utilisation counters, and drop-reason
//!   accounting, implemented once for every experiment;
//! * [`attack`] — adversarial workload plans ([`AttackPlan`]), the pacer
//!   of their open-loop fleets and the edge defenses that absorb them
//!   ([`DefenseConfig`], the transport-enforced [`EdgeDefense`]);
//! * [`catalog`] — the content [`Catalog`]: the chunk-name grammar, the
//!   popularity users draw from and the spray attack fleets draw;
//! * [`requester`] — the Zipf-window mechanics of a user node
//!   ([`ZipfRequester`]) and the [`Requester`] interface the harness
//!   drives user nodes through;
//! * [`relay`] — the access-point pending/demultiplex relay;
//! * [`mobility`] — the handover model's configuration;
//! * [`fault`] — deterministic fault injection: per-link loss models,
//!   scheduled link/node failures, and the consumer retransmission
//!   policy.
//!
//! Determinism is the crate's contract: given the same topology, plane,
//! and RNG, the transport performs the identical sequence of engine
//! schedules and RNG draws on every run and on every thread count.
//!
//! # Examples
//!
//! A minimal custom plane — one client echoing off one provider:
//!
//! ```
//! use tactic_net::links::Links;
//! use tactic_net::plane::{Emit, NodePlane, PlaneCtx};
//! use tactic_net::transport::{Net, NetConfig};
//! use tactic_ndn::face::FaceId;
//! use tactic_ndn::packet::{Data, Interest, Packet, Payload};
//! use tactic_sim::cost::CostModel;
//! use tactic_sim::rng::Rng;
//! use tactic_sim::time::{SimDuration, SimTime};
//! use tactic_topology::graph::{Graph, LinkSpec, NodeId, Role};
//! use tactic_topology::roles::Topology;
//!
//! struct Echo;
//! impl NodePlane for Echo {
//!     fn on_start(&mut self, _n: NodeId, _ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {
//!         let i = Interest::new("/prov0/obj0/c0".parse().unwrap(), 1);
//!         out.push(Emit::Send {
//!             face: FaceId::new(0),
//!             packet: Packet::Interest(i),
//!             compute: SimDuration::ZERO,
//!         });
//!     }
//!     fn on_packet(
//!         &mut self,
//!         _n: NodeId,
//!         face: FaceId,
//!         packet: Packet,
//!         _ctx: &mut PlaneCtx<'_>,
//!         out: &mut Vec<Emit>,
//!     ) {
//!         if let Packet::Interest(i) = packet {
//!             let d = Data::new(i.name().clone(), Payload::Synthetic(64));
//!             out.push(Emit::Send {
//!                 face,
//!                 packet: Packet::Data(d),
//!                 compute: SimDuration::ZERO,
//!             });
//!         }
//!     }
//! }
//!
//! let mut graph = Graph::new();
//! let client = graph.add_node(Role::Client);
//! let provider = graph.add_node(Role::Provider);
//! graph.add_link(client, provider, LinkSpec::edge());
//! let topo = Topology {
//!     graph,
//!     core_routers: vec![],
//!     edge_routers: vec![],
//!     access_points: vec![],
//!     providers: vec![provider],
//!     clients: vec![client],
//!     attackers: vec![],
//! };
//! let links = Links::build(&topo);
//! let config = NetConfig {
//!     duration: SimDuration::from_secs(2),
//!     mobility: None,
//!     cost: CostModel::free(),
//!     faults: tactic_net::fault::FaultPlan::none(),
//!     sample_every: None,
//!     profile: false,
//!     defense: None,
//!     churn: None,
//! };
//! let net = Net::assemble(&topo, links, Echo, Rng::seed_from_u64(1), config);
//! let (_plane, _observer, report) = net.run();
//! assert_eq!(report.deliveries, 2, "one Interest out, one Data back");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod catalog;
pub mod fault;
pub mod harness;
pub mod links;
pub mod mobility;
pub mod observer;
pub mod plane;
pub mod relay;
pub mod requester;
pub mod sharded;
pub mod transport;

pub use attack::{
    AttackClass, AttackDriver, AttackPlan, ChurnConfig, DefenseConfig, EdgeDefense, Pacer,
    RateLimit, ATTACK_STREAM,
};
pub use catalog::{Catalog, CatalogEntry, Chunk, ChunkNames};
pub use fault::{FaultEvent, FaultKind, FaultPlan, LossModel, RetransmitPolicy};
pub use links::{fib_routes_filtered, populate_fib, provider_prefix, FibRoute, Links};
pub use mobility::MobilityConfig;
pub use observer::{DropReason, DropTotals, EventTrace, NetCounters, NetObserver, NoopObserver};
pub use plane::{Emit, NodePlane, PlaneCtx};
pub use relay::ApRelay;
pub use requester::{compose_nonce, Expiry, Flight, RequestPolicy, Requester, Work, ZipfRequester};
pub use sharded::{run_sharded, run_sharded_profiled, ShardedStats};
pub use transport::{
    KeyedEvent, Mail, Net, NetConfig, NetEvent, Parked, ShardSpec, TransportReport,
};
