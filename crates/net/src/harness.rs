//! The plane harness: everything about assembling and running a
//! mechanism that is not mechanism logic.
//!
//! A mechanism implements [`Plane`] — its node types, a factory for its
//! routers, providers and users, their packet reactions, its stamp at an
//! access point and its report fold — and the harness does the rest,
//! once for every mechanism:
//!
//! * **world construction** — seed → RNG, [`Topology`], [`Links`], every
//!   router's FIB rows and the [`ShardMap`]: once per run, on the calling
//!   thread; the [`Catalog`] once per shard, on its thread, from
//!   [`RunSpec`]'s objects, chunks and Zipf α, so shards share no name;
//! * **transport configuration** — the attacker-churn schedule and the
//!   [`EdgeDefense`] membership lists, derived from the topology roles;
//! * **shared node bookkeeping** — the one [`NodePlane`] implementation,
//!   hosting any plane: every access point's [`ApRelay`], in a dense
//!   arena per shard, and its relay (with a 4 s TTL on unanswered
//!   Interests), FIB rows at build and on a full-replacement reroute,
//!   each user's Data and NACKs (the retrieval reported once to the
//!   protocol observer, then handed to its [`Requester`]), the
//!   attack-fleet tick ([`fleet_tick`]), each user's one armed wake-up
//!   (armed before the Interests it covers go out), move-last fan-out
//!   ([`fan_out`]), per-sweep PIT/CS sums and sampler rows.
//!   Monomorphised per mechanism; nothing on the per-event path is
//!   `dyn`;
//! * **running** — [`run`] is partition → epoch loop → node stitch →
//!   report merge for every shard count: shard 0 runs on the calling
//!   thread and each other shard on a scoped thread of its own, so one
//!   shard starts no thread and runs one window
//!   ([`sharded`](crate::sharded)). [`Assembled::run`] drives a net
//!   built ahead of time through the same loop. Every run returns a
//!   [`ShardedStats`], so no caller branches on the shard count.
//!
//! # Partition-owned shards
//!
//! A run builds one [`World`] and one [`ShardMap`], which gives every node
//! one owning shard and a slot there: its rank among that shard's nodes
//! in id order. A shard holds what it owns and nothing else. Each of its
//! per-node tables — node states, face rows, link lanes, RNG streams,
//! event-key counters — has one entry per node it owns, at the node's
//! slot; its defense buckets and calendar hold its own nodes' only. What
//! it keeps of the rest of the world is shared or small: the map itself,
//! one copy behind an `Arc` for every shard, answers "who owns this
//! node" for a packet bound elsewhere, and the list of access points a
//! handover draws from, the down nodes and links and (under a fault
//! schedule) the topology the reroute walks are per shard. One shard is
//! simply the shard that owns everything, each node at its id.
//!
//! The world — topology graph, every FIB route — lives only while the
//! shards assemble: the face table is dealt out among them row by row
//! ([`Links::split`]), not copied, each shard takes a hold on the world
//! with its rows and lets go when its assembly returns, so the last one
//! to finish frees it before the first epoch. Each shard processes the
//! events homed at its own nodes (see [`sharded`](crate::sharded)); the
//! stitch scatters each shard's nodes back into one [`NodeId`]-indexed
//! vector and is the one place reports merge: order-invariant sums add,
//! high-water marks max, mirrored event counts de-duplicate
//! ([`TransportReport::merge_shards`]).
//!
//! *The build-coupling contract* ([`Plane::build`]): an owned node comes
//! out bit for bit as the one-shard build makes it. On the TACTIC plane
//! the couplings are the grants of every client principal — one registry
//! table, shared by `Arc` among the providers a shard keeps — and the
//! tags providers issue to attackers that start with one (the signature
//! matters where the holder is owned, the issuance count where the
//! provider is): providers are a handful, so every shard constructs all
//! of them, drives each through exactly the calls that matter to it and
//! keeps the ones it owns. `tests/ownership.rs` holds this for every
//! attacker strategy and attack class; `tests/plane_harness.rs` counts
//! that each node is constructed exactly once.
//!
//! # Adding a mechanism plane
//!
//! Write the mechanism and nothing else — no build, run or shard code, no
//! access point, FIB row, catalog or reply handling. Implement [`Plane`]
//! for the scenario type:
//!
//! 1. name the node types: a router holding a [`Tables`] (handed back by
//!    [`Plane::tables`]), a provider, a [`Requester`] user
//!    ([`ZipfRequester`](crate::requester::ZipfRequester) will do, or
//!    wrap one), an [`AttackDriver`] and the report;
//! 2. [`Plane::run_spec`] says what to run on, with an RNG `stream`
//!    constant of the plane's own so planes never share streams;
//! 3. [`Plane::build`] is the node factory — one state per node
//!    [`Shard::nodes`] lists, in that order — under the contract above;
//! 4. [`Plane::on_packet`] reacts at a router or provider, pushing
//!    [`Emit::Send`]s in the order they are to be scheduled (that order
//!    fixes event keys); [`fan_out`] sends one packet to many faces;
//! 5. [`Plane::at_access_point`] (optional) stamps an Interest at the
//!    edge and names the identity a reply is demultiplexed by;
//! 6. [`Plane::report`] folds the final node states.
//!
//! Then [`run`] runs it, sequentially or sharded and byte-identical.
//! `tests/plane_harness.rs` holds a complete third plane — vanilla NDN
//! forwarding, answer-anything providers, the plain requester — in some
//! 130 lines, run at K ∈ {1, 2, 3, 4, 8}; `tactic::net` and
//! `tactic_baselines::net` are the two real ones. A unit test that drives
//! the transport directly implements the bare [`NodePlane`] callbacks
//! instead, as `crates/net/tests/plane_equivalence.rs` does.

use std::sync::{Arc, Mutex};

use tactic_ndn::face::FaceId;
use tactic_ndn::forwarder::Tables;
use tactic_ndn::packet::{Interest, Packet};
use tactic_sim::cost::CostModel;
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::{
    Hop, NodeRole, NoopProtocolObserver, ProtocolObserver, RetrievalOutcome, SampleRow,
};
use tactic_topology::graph::{LinkSpec, NodeId};
use tactic_topology::paper::TopologyChoice;
use tactic_topology::roles::Topology;
use tactic_topology::shard::{Members, ShardError, ShardMap};

use crate::attack::{
    AttackDriver, AttackPlan, ChurnConfig, DefenseConfig, EdgeDefense, Pacer, TICK,
};
use crate::catalog::{Catalog, CatalogEntry};
use crate::fault::FaultPlan;
use crate::links::{populate_fib, provider_prefix, FibRoute, Links};
use crate::mobility::MobilityConfig;
use crate::observer::{NetObserver, NoopObserver};
use crate::plane::{Emit, NodePlane, PlaneCtx};
use crate::relay::ApRelay;
use crate::requester::Requester;
use crate::sharded::{run_sharded, run_sharded_profiled, ShardedStats};
use crate::transport::{fault_topo, Net, NetConfig, Part, TransportReport};

/// Mean dwell of a churning attacker between re-attachments.
const CHURN_DWELL: SimDuration = SimDuration::from_secs(2);

/// How long an access point remembers an unanswered user Interest.
const AP_PURGE_TTL: SimDuration = SimDuration::from_secs(4);

/// What a run is, minus the mechanism: the world to build and every
/// transport-level knob.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The network.
    pub topology: TopologyChoice,
    /// XORed into the seed to form the run RNG, so mechanisms replaying
    /// one seed (and so one paper topology) draw from distinct streams.
    pub stream: u64,
    /// Simulated duration (the engine horizon).
    pub duration: SimDuration,
    /// Objects each provider serves.
    pub objects: usize,
    /// Chunks per object.
    pub chunks: usize,
    /// The Zipf exponent of object popularity.
    pub zipf_alpha: f64,
    /// Client mobility (`None` = static evaluation).
    pub mobility: Option<MobilityConfig>,
    /// Computation-cost injection model.
    pub cost: CostModel,
    /// Fault-injection plan.
    pub faults: FaultPlan,
    /// Sim-time sampling cadence (`None` = sampler off).
    pub sample_every: Option<SimDuration>,
    /// Collect the wall-clock span profile.
    pub profile: bool,
    /// What the attacker fleet does.
    pub attack: AttackPlan,
    /// The edge's defensive posture.
    pub defense: DefenseConfig,
}

impl RunSpec {
    /// Builds the run's one world, and the full face table its shards
    /// deal out among themselves.
    fn world(&self, seed: u64) -> (World, Links) {
        let rng = Rng::seed_from_u64(seed ^ self.stream);
        let topo = self.topology.build(seed, &rng);
        let links = Links::build(&topo);
        let routes = populate_fib(&topo, &links);
        let world = World {
            seed,
            rng,
            fault_topo: fault_topo(&topo, &self.faults),
            topo,
            routes,
        };
        (world, links)
    }

    /// The transport's view of this run for the shard that `owns`. The
    /// transport is role-blind, so what depends on roles is resolved
    /// here: churn names the attacker nodes, the edge defenses get the
    /// membership lists of the nodes they police — the shard's own, since
    /// a packet is policed where it is transmitted and an access point
    /// lives with its edge router. (The bounded PIT is a router concern
    /// the node factories wire.)
    fn into_net_config(self, topo: &Topology, owns: impl Fn(&NodeId) -> bool) -> NetConfig {
        let churn = self.attack.churns().then(|| {
            let mut nodes = topo.attackers.clone();
            nodes.sort_unstable();
            ChurnConfig {
                nodes,
                mean_dwell: CHURN_DWELL,
            }
        });
        let armed = self.defense.rate_limit.is_some() || self.defense.face_cap.is_some();
        let defense = armed.then(|| {
            EdgeDefense::new(
                self.defense.rate_limit,
                self.defense.face_cap,
                topo.users().filter(&owns).collect(),
                topo.access_points.iter().copied().filter(&owns).collect(),
                topo.edge_routers.iter().copied().filter(&owns).collect(),
            )
        });
        NetConfig {
            duration: self.duration,
            mobility: self.mobility,
            cost: self.cost,
            faults: self.faults,
            sample_every: self.sample_every,
            profile: self.profile,
            defense,
            churn,
        }
    }
}

/// What a run builds once and its shards share by reference while they
/// assemble: the same for every mechanism given the same [`RunSpec`] and
/// seed. It is freed before the first epoch.
#[derive(Debug)]
pub struct World {
    /// The run seed (for key derivation that must not depend on the stream).
    pub seed: u64,
    /// The run RNG. Factories only ever [`fork`](Rng::fork) it — forking
    /// is pure, so streams stay independent of construction order.
    pub rng: Rng,
    /// The network.
    pub topo: Topology,
    /// Every router's FIB row toward every provider (one Dijkstra per
    /// provider), providers-outer, routers-inner: the harness installs
    /// them.
    pub(crate) routes: Vec<FibRoute>,
    /// The copy of `topo` every shard re-routes over at failure instants,
    /// outliving the world (`None` unless the run schedules a fault).
    pub(crate) fault_topo: Option<Arc<Topology>>,
}

/// One shard's share of a [`World`]: what a node factory builds from.
#[derive(Debug)]
pub struct Shard<'a> {
    /// The shared world.
    pub world: &'a World,
    /// The content catalog, this shard's own.
    pub catalog: Arc<Catalog>,
    /// This shard's face rows, by slot.
    links: &'a Links,
    part: &'a Part,
}

impl Shard<'_> {
    /// Whether `node` is this shard's to materialise (always, when the
    /// run has one shard).
    pub fn owns(&self, node: NodeId) -> bool {
        self.part.owns(node)
    }

    /// Where `node`'s state goes in what [`Plane::build`] returns: its
    /// slot, or `None` when another shard owns it.
    pub fn slot(&self, node: NodeId) -> Option<usize> {
        self.owns(node).then(|| self.part.slot(node))
    }

    /// The nodes this shard owns, in slot order: ascending ids.
    pub fn nodes(&self) -> Members<'_> {
        self.part.nodes()
    }

    /// An owned node's faces: `(neighbour, link)` by face index.
    ///
    /// # Panics
    ///
    /// Panics if another shard owns `node`: this shard has no row of it.
    pub fn faces(&self, node: NodeId) -> &[(NodeId, LinkSpec)] {
        let slot = self.slot(node);
        &self.links.neighbors[slot.unwrap_or_else(|| panic!("{node} is another shard's"))]
    }
}

/// One node's state. The kinds are the topology's roles, the same for
/// every mechanism; what a router, provider or user *is* is the plane's.
///
/// A shard holds one of these per node it owns, so a slot is 16 bytes —
/// a tag and one pointer or index — whatever the node: each plane state
/// is boxed, an attack-fleet node's three parts share one box
/// ([`FleetNode`]), and an access point's [`ApRelay`] lives in a dense
/// per-shard arena beside the slots, which its slot indexes.
pub enum Node<P: Plane> {
    /// A core or edge router.
    Router(Box<P::Router>),
    /// A content provider.
    Provider(Box<P::Provider>),
    /// A client or attacker.
    User(Box<P::User>),
    /// An attacker fielded as an open-loop traffic source. The harness
    /// runs it ([`fleet_tick`]); no packet reaches the plane here.
    Fleet(Box<FleetNode<P>>),
    /// An access point, built and run by the harness: its place in the
    /// owning shard's arena of relays.
    Ap(u32),
    /// A slot the factory leaves to the harness: an access point's, which
    /// the harness builds once the factory returns. No node is vacant
    /// while a run runs or when its report folds.
    Vacant,
}

impl<P: Plane> Node<P> {
    /// The windowed requester at a user node, fielded in an attack fleet
    /// or not.
    pub fn user(&self) -> Option<&P::User> {
        match self {
            Node::User(user) => Some(user),
            Node::Fleet(fleet) => Some(&fleet.user),
            _ => None,
        }
    }
}

/// An attacker fielded as an open-loop traffic source, in one box.
pub struct FleetNode<P: Plane> {
    /// The windowed requester this silences, kept for the report.
    pub user: P::User,
    /// What crafts its Interests.
    pub driver: P::Driver,
    /// How many are due each tick.
    pub pacer: Pacer,
}

/// A node whose packet handling is the mechanism's (see
/// [`Plane::on_packet`]).
pub enum Station<'a, P: Plane> {
    /// A core or edge router.
    Router(&'a mut P::Router),
    /// A content provider.
    Provider(&'a mut P::Provider),
}

/// A mechanism. Implemented by its scenario type: the value that says
/// what to build is also what the running nodes consult.
pub trait Plane: Sync + Sized {
    /// A router's state.
    type Router: Send;
    /// The PIT in-record note type of a router's [`Tables`].
    type Note;
    /// A provider's state.
    type Provider: Send;
    /// A user's windowed requester.
    type User: Requester + Send;
    /// An attacker's open-loop driver.
    type Driver: AttackDriver + Send;
    /// What one run measures.
    type Report;

    /// The mechanism-independent part of the run.
    fn run_spec(&self) -> RunSpec;

    /// The node factory: one state per node the shard owns, in the order
    /// of [`Shard::nodes`] (a node's place is its [`Shard::slot`]) — each
    /// router, provider and user, and [`Node::Vacant`] at every access
    /// point (the harness builds those, and installs every router's FIB
    /// rows once this returns); an attacker is a [`Node::Fleet`] while
    /// [`AttackPlan::fleet_class`] names a class. A shard's users share
    /// one [`RequestPolicy`](crate::requester::RequestPolicy). Nothing is
    /// built for a node another shard owns. Called once per shard, on
    /// that shard's thread.
    ///
    /// The contract: an owned node's state is bit for bit what the
    /// one-shard build gives it. Per-node inputs make that free — fork
    /// [`World::rng`] by node id, read the node's own [`Shard::faces`]
    /// and the [`Shard::catalog`]. What one node's construction does
    /// to *another* node (a provider registering every client, signing
    /// the tags attackers start with and counting them) must be replayed
    /// wherever either party is owned, in the one-shard order.
    fn build(&self, shard: &Shard<'_>) -> Vec<Node<Self>>;

    /// The NDN tables inside a router: the harness sweeps the PIT,
    /// samples PIT and CS sizes and replaces the FIB through them.
    fn tables(router: &mut Self::Router) -> &mut Tables<Self::Note>;

    /// Adds a router's gauges beyond its table sizes to a sampler row.
    /// Every contribution must be an integer sum (or a fixed-point max)
    /// so per-shard rows merge to exactly the sequential row.
    fn sample(_router: &Self::Router, _row: &mut SampleRow) {}

    /// Access point `ap` relays `packet`: stamps an Interest on its way
    /// up (TACTIC: the access path) and returns the client identity a
    /// packet carries, so a reply reaches only the users who asked under
    /// it. `None` (the default, stamping nothing) serves all who wait.
    fn at_access_point(_ap: NodeId, _packet: &mut Packet) -> Option<u64> {
        None
    }

    /// A packet finished arriving at router or provider `node` (whose
    /// state is `station`) on `face`. The harness answers for every
    /// other node kind.
    #[allow(clippy::too_many_arguments)] // the transport callback + state + observer
    fn on_packet<PO: ProtocolObserver>(
        &self,
        station: Station<'_, Self>,
        node: NodeId,
        face: FaceId,
        packet: Packet,
        proto: &mut PO,
        ctx: &mut PlaneCtx<'_>,
        out: &mut Vec<Emit>,
    );

    /// Folds the final node states (all of them, in node-id order, each
    /// from the shard that owned it), the network-wide PIT and
    /// content-store high-water
    /// marks (sampled at the purge sweeps, before each sweep, so they
    /// reflect what loss actually accumulated) and the merged transport
    /// totals into the report.
    fn report(
        &self,
        nodes: Vec<Node<Self>>,
        peak_pit: u64,
        peak_cs: u64,
        transport: TransportReport,
    ) -> Self::Report;
}

/// One tick of an attack fleet node: crafts the Interests `pacer` says
/// are due straight onto `out`, reporting each to the observer.
pub fn fleet_tick<PO: ProtocolObserver>(
    driver: &mut impl AttackDriver,
    pacer: &mut Pacer,
    proto: &mut PO,
    hop: Hop,
    out: &mut Vec<Emit>,
) {
    for _ in 0..pacer.due() {
        let i = driver.craft();
        proto.on_interest_emitted(hop, i.nonce(), i.name());
        out.push(Emit::send(FaceId::new(0), Packet::Interest(i)));
    }
}

/// An access point's relay: a user's Interest goes up, noted under its
/// client identity; a reply goes down to the users waiting under its.
fn relay<P: Plane>(
    ap: &mut ApRelay,
    face: FaceId,
    mut packet: Packet,
    now: SimTime,
    out: &mut Vec<Emit>,
) {
    if face == ap.upstream && matches!(packet, Packet::Interest(_)) {
        return; // Interests never flow AP-ward.
    }
    let identity = P::at_access_point(ap.id, &mut packet);
    let faces = match &packet {
        Packet::Interest(i) => {
            ap.note(i.name().clone(), face, now, identity);
            return out.push(Emit::send(ap.upstream, packet));
        }
        Packet::Data(d) => ap.claim(d.name(), identity),
        Packet::Nack(n) => ap.claim(n.interest().name(), identity),
    };
    fan_out(faces, packet, |p| p, out)
}

/// Installs each of `routes` at its router, where `part` owns it.
fn install_routes<P: Plane>(nodes: &mut [Node<P>], part: &Part, routes: &[FibRoute]) {
    for route in routes.iter().filter(|route| part.owns(route.router)) {
        if let Node::Router(r) = &mut nodes[part.slot(route.router)] {
            let fib = &mut P::tables(r).fib;
            fib.add_route(route.prefix.clone(), route.face, route.cost_us);
        }
    }
}

/// Sends one packet out several faces, cloning only on genuine fan-out:
/// the last face takes it by move.
pub fn fan_out<T: Clone>(
    faces: impl IntoIterator<Item = FaceId>,
    packet: T,
    wrap: fn(T) -> Packet,
    out: &mut Vec<Emit>,
) {
    let mut faces = faces.into_iter().peekable();
    while let Some(face) = faces.next() {
        if faces.peek().is_none() {
            return out.push(Emit::send(face, wrap(packet)));
        }
        out.push(Emit::send(face, wrap(packet.clone())));
    }
}

/// The one [`NodePlane`]: hosts any [`Plane`] on the transport and keeps
/// the books every mechanism needs kept the same way.
struct Hosted<'a, P: Plane, PO> {
    plane: &'a P,
    /// The nodes this shard owns, by slot, so every sweep below is a
    /// sweep over this shard's own.
    nodes: Vec<Node<P>>,
    /// The relays of the access points among them, which their
    /// [`Node::Ap`] slots index.
    aps: Vec<ApRelay>,
    /// Which nodes those are.
    part: Part,
    /// PIT records summed over this instance's live routers, one entry
    /// per purge sweep. Purge sweeps are mirrored in every shard at the
    /// same instants, so per-shard vectors add element-wise and the
    /// final max equals the sequential high-water mark.
    pit_sweep_sums: Vec<u64>,
    /// Content-store entries, summed the same way.
    cs_sweep_sums: Vec<u64>,
    /// Where requesters put the Interests they issue: filled and drained
    /// within one callback, kept for its capacity.
    sends: Vec<Interest>,
    proto: PO,
}

fn user_hop(node: NodeId, now: SimTime) -> Hop {
    Hop::new(node.index() as u64, NodeRole::Consumer, now)
}

impl<P: Plane, PO: ProtocolObserver> Hosted<'_, P, PO> {
    /// Runs `step` on the windowed requester at `node` — if there is one
    /// and no attack driver has taken the node over — and puts the
    /// Interests it issues on the wire, each reported to the observer,
    /// behind the wake-up its deadlines now need, if any: one wake-up per
    /// user is armed, at its earliest deadline.
    fn drive(
        &mut self,
        node: NodeId,
        now: SimTime,
        out: &mut Vec<Emit>,
        step: impl FnOnce(&mut P::User, &mut PO, Hop, &mut Vec<Interest>),
    ) {
        if let Node::User(user) = &mut self.nodes[self.part.slot(node)] {
            let hop = user_hop(node, now);
            step(user, &mut self.proto, hop, &mut self.sends);
            if let Some(at) = user.window().arm(now) {
                out.push(Emit::Timeout { delay: at - now });
            }
            for i in self.sends.drain(..) {
                self.proto.on_interest_emitted(hop, i.nonce(), i.name());
                out.push(Emit::send(FaceId::new(0), Packet::Interest(i)));
            }
        }
    }
}

impl<P: Plane, PO: ProtocolObserver> NodePlane for Hosted<'_, P, PO> {
    fn on_packet(
        &mut self,
        node: NodeId,
        face: FaceId,
        packet: Packet,
        ctx: &mut PlaneCtx<'_>,
        out: &mut Vec<Emit>,
    ) {
        let station = match &mut self.nodes[self.part.slot(node)] {
            Node::Router(r) => Station::Router(&mut **r),
            Node::Provider(p) => Station::Provider(&mut **p),
            Node::Ap(ap) => {
                let ap = &mut self.aps[*ap as usize];
                return relay::<P>(ap, face, packet, ctx.now, out);
            }
            Node::User(_) => {
                return self.drive(
                    node,
                    ctx.now,
                    out,
                    |user, proto, hop, sends| match &packet {
                        Packet::Data(d) => {
                            proto.on_retrieval(hop, d.name(), RetrievalOutcome::Data);
                            user.on_data(d, hop.now, sends)
                        }
                        Packet::Nack(n) => {
                            proto.on_retrieval(hop, n.interest().name(), RetrievalOutcome::Nack);
                            user.on_nack(n, hop.now, sends)
                        }
                        Packet::Interest(_) => {}
                    },
                )
            }
            // Open-loop fleet: replies are never tracked.
            Node::Fleet(..) | Node::Vacant => return,
        };
        (self.plane).on_packet(station, node, face, packet, &mut self.proto, ctx, out);
    }

    fn on_start(&mut self, node: NodeId, ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {
        if matches!(self.nodes[self.part.slot(node)], Node::Fleet(..)) {
            // Arm the attack pacer instead of the windowed requester.
            return out.push(Emit::Timeout { delay: TICK });
        }
        self.drive(node, ctx.now, out, |user, _, _, sends| {
            user.fill(ctx.now, sends)
        });
    }

    fn on_timeout(&mut self, node: NodeId, ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {
        if let Node::Fleet(fleet) = &mut self.nodes[self.part.slot(node)] {
            let hop = user_hop(node, ctx.now);
            let FleetNode { driver, pacer, .. } = &mut **fleet;
            fleet_tick(driver, pacer, &mut self.proto, hop, out);
            return out.push(Emit::Timeout { delay: TICK });
        }
        self.drive(node, ctx.now, out, |user, proto, hop, sends| {
            user.on_timeout(hop.now, sends, |name| proto.on_timeout_expired(hop, name))
        });
    }

    /// (A fleet whose tick falls while it is down stays silent.)
    fn on_timeout_skipped(&mut self, node: NodeId, now: SimTime, out: &mut Vec<Emit>) {
        self.drive(node, now, out, |user, _, _, _| user.window().fired(now));
    }

    fn on_purge(&mut self, now: SimTime) {
        let (mut pit, mut cs) = (0, 0);
        for node in &mut self.nodes {
            if let Node::Router(r) = node {
                let tables = P::tables(r);
                pit += tables.pit.total_records() as u64;
                cs += tables.cs.len() as u64;
                tables.pit.purge_expired(now);
            }
        }
        for ap in &mut self.aps {
            ap.purge(now, AP_PURGE_TTL);
        }
        self.pit_sweep_sums.push(pit);
        self.cs_sweep_sums.push(cs);
    }

    fn on_handover(&mut self, node: NodeId, ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {
        // (The open-loop fleet keeps its credentials and pace.)
        self.drive(node, ctx.now, out, |user, _, _, sends| {
            user.on_handover(ctx.now, sends)
        });
    }

    fn on_reroute(&mut self, routes: &[FibRoute]) {
        // Full replacement: the transport hands over the complete
        // post-failure routing plane of this shard's routers.
        for node in &mut self.nodes {
            if let Node::Router(r) = node {
                P::tables(r).fib.clear();
            }
        }
        install_routes(&mut self.nodes, &self.part, routes);
    }

    fn on_sample(&mut self, _now: SimTime, row: &mut SampleRow) {
        for node in &mut self.nodes {
            if let Node::Router(r) = node {
                let tables = P::tables(r);
                row.pit_records += tables.pit.total_records() as u64;
                row.cs_entries += tables.cs.len() as u64;
                P::sample(r, row);
            }
        }
    }
}

/// What a run returns: the mechanism's report, the per-shard transport
/// and protocol observers (unmerged, in shard order — fold them with
/// their own merge operations) and the epoch loop's stats. One shard
/// is the degenerate case: one-element vectors, no epochs, no edge cut.
pub type Run<P, O, PO> = (<P as Plane>::Report, Vec<O>, Vec<PO>, ShardedStats);

/// A plane assembled on the calling thread, every node built, ready to
/// [`run`](Assembled::run).
pub struct Assembled<'a, P: Plane, O = NoopObserver, PO = NoopProtocolObserver>(
    Net<Hosted<'a, P, PO>, O>,
);

impl<P: Plane, O: NetObserver + Send, PO: ProtocolObserver + Send> Assembled<'_, P, O, PO> {
    /// Runs to the horizon on the calling thread: the one-shard epoch
    /// loop, on the net already built.
    pub fn run(self) -> Run<P, O, PO> {
        let horizon = self.0.horizon();
        let net = Mutex::new(Some(self.0));
        let (results, stats) = run_sharded(1, None, horizon, |_| take_once(&net));
        fold(results, stats)
    }
}

/// Builds the world and every node of `plane` for `seed`, without
/// running it (so set-up and run can be timed apart). The world is freed
/// when this returns.
pub fn assemble<P: Plane, O: NetObserver, PO: ProtocolObserver>(
    plane: &P,
    seed: u64,
    observer: O,
    proto: PO,
) -> Assembled<'_, P, O, PO> {
    let run = plane.run_spec();
    let (world, links) = run.world(seed);
    let part = Part::whole(&world.topo);
    Assembled(assemble_shard(
        plane, run, &world, links, part, observer, proto,
    ))
}

/// The shard `part` of a run over `world`: `links` holds the rows of the
/// nodes it owns.
fn assemble_shard<'a, P: Plane, O: NetObserver, PO: ProtocolObserver>(
    plane: &'a P,
    run: RunSpec,
    world: &World,
    links: Links,
    part: Part,
    observer: O,
    proto: PO,
) -> Net<Hosted<'a, P, PO>, O> {
    let topo = &world.topo;
    let entries = (0..topo.providers.len()).map(|i| CatalogEntry {
        prefix: provider_prefix(i),
        objects: run.objects,
        chunks: run.chunks,
    });
    let catalog = Catalog::new(entries.collect(), run.zipf_alpha);
    let shard = Shard {
        world,
        catalog,
        links: &links,
        part: &part,
    };
    let mut nodes = plane.build(&shard);
    assert_eq!(
        nodes.len(),
        part.len(),
        "the node factory builds one state per node its shard owns"
    );
    let owned_aps = || (topo.access_points.iter()).filter_map(|&ap| Some((ap, shard.slot(ap)?)));
    let mut aps = Vec::with_capacity(owned_aps().count());
    for (ap, slot) in owned_aps() {
        let relay = ApRelay::new(topo, shard.faces(ap), ap).expect("validated topology: AP wired");
        nodes[slot] = Node::Ap(aps.len() as u32);
        aps.push(relay);
    }
    install_routes(&mut nodes, &part, &world.routes);
    let config = run.into_net_config(topo, |&node| part.owns(node));
    let hosted = Hosted {
        plane,
        nodes,
        aps,
        part: part.clone(),
        pit_sweep_sums: Vec::new(),
        cs_sweep_sums: Vec::new(),
        sends: Vec::new(),
        proto,
    };
    let rng = world.rng.clone();
    let fault_topo = world.fault_topo.clone();
    Net::assemble_inner(topo, fault_topo, links, hosted, rng, config, observer, part)
}

/// Runs `plane` for `seed` as `shards` shards — the calling thread and
/// `shards − 1` scoped threads — with per-shard transport and protocol
/// observers.
///
/// Every shard count takes one path: partition the one world built here,
/// deal it out, then the epoch loop (see the module docs). The world is
/// freed once the last shard has assembled; what outlives it is the
/// shard map and the lookahead. One shard owns every node and runs a
/// single window. The report is byte-identical for every shard count
/// (the engine-queue high-water mark, which is partition-dependent, is
/// excluded from the reports' `Debug` output).
///
/// # Errors
///
/// [`ShardError::ZeroShards`] for `shards == 0`;
/// [`ShardError::TooManyShards`] when `shards` exceeds the router count.
///
/// # Panics
///
/// Panics, naming the shard, if a shard's node factory or packet
/// handling does.
pub fn run<P, O, PO>(
    plane: &P,
    seed: u64,
    shards: usize,
    make_observer: impl Fn(u32) -> O + Sync,
    make_proto: impl Fn(u32) -> PO + Sync,
) -> Result<Run<P, O, PO>, ShardError>
where
    P: Plane,
    O: NetObserver + Send,
    PO: ProtocolObserver + Send,
{
    let spec = plane.run_spec();
    let (world, links) = spec.world(seed);
    let map = Arc::new(ShardMap::partition(&world.topo, shards)?);
    // Client mobility, or an attacker-churn plan riding the same Move
    // events: either re-points radio links across shard boundaries at
    // will, so the lookahead must conservatively account for both.
    let lookahead = map.lookahead(spec.mobility.is_some() || spec.attack.churns());
    let horizon = SimTime::ZERO + spec.duration;
    // What each shard takes as it starts: its rows, and a hold on the
    // world it lets go of once assembled.
    let world = Arc::new(world);
    let parts: Vec<_> = (links.split(&map).into_iter())
        .map(|rows| Mutex::new(Some((Arc::clone(&world), rows))))
        .collect();
    drop(world);
    let (results, mut stats) =
        run_sharded_profiled(shards, lookahead, horizon, spec.profile, |s| {
            let (world, links) = take_once(&parts[s as usize]);
            let part = Part {
                map: Arc::clone(&map),
                me: s,
            };
            let (observer, proto) = (make_observer(s), make_proto(s));
            assemble_shard(plane, spec.clone(), &world, links, part, observer, proto)
        });
    stats.edge_cut = map.edge_cut;
    Ok(fold(results, stats))
}

/// What `cell` holds, taken by the one shard it is for.
fn take_once<T>(cell: &Mutex<Option<T>>) -> T {
    let mut cell = cell.lock().expect("no holder of this lock can panic");
    cell.take().expect("a shard is built once")
}

/// The single stitch/merge: scatters every shard's nodes into one
/// [`NodeId`]-indexed vector, folds the mirrored per-sweep PIT/CS sums
/// element-wise (each shard's own maxima feed `stats` before the fold
/// erases them), merges the transport totals and hands all of it to the
/// mechanism's report fold.
fn fold<P: Plane, O, PO>(
    results: Vec<(Hosted<'_, P, PO>, O, TransportReport)>,
    mut stats: ShardedStats,
) -> Run<P, O, PO> {
    fn peak(sums: &[u64]) -> u64 {
        sums.iter().copied().max().unwrap_or(0)
    }
    fn add(total: &mut Vec<u64>, mut sums: Vec<u64>) {
        if sums.len() > total.len() {
            std::mem::swap(total, &mut sums);
        }
        for (t, v) in total.iter_mut().zip(sums) {
            *t += v;
        }
    }

    let first = &results.first().expect("a run has at least one shard").0;
    let (plane, map) = (first.plane, Arc::clone(&first.part.map));
    let mut nodes = Vec::new();
    let (mut observers, mut protos, mut transports) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pit_sums, mut cs_sums) = (Vec::new(), Vec::new());
    for (hosted, observer, transport) in results {
        stats.per_shard_peak_pit.push(peak(&hosted.pit_sweep_sums));
        stats.per_shard_peak_cs.push(peak(&hosted.cs_sweep_sums));
        add(&mut pit_sums, hosted.pit_sweep_sums);
        add(&mut cs_sums, hosted.cs_sweep_sums);
        // Shards come in order: shard 0's vector becomes the whole, and
        // every other shard's nodes fill its vacancies.
        match hosted.part.me {
            0 => nodes = spread(&map, hosted.nodes),
            me => {
                for (id, node) in map.members(me).zip(hosted.nodes) {
                    debug_assert!(matches!(nodes[id.index()], Node::Vacant), "one owner");
                    nodes[id.index()] = node;
                }
            }
        }
        observers.push(observer);
        protos.push(hosted.proto);
        transports.push(transport);
    }
    let transport = TransportReport::merge_shards(&transports);
    let report = plane.report(nodes, peak(&pit_sums), peak(&cs_sums), transport);
    (report, observers, protos, stats)
}

/// Moves shard 0's nodes from their slots to their ids, in their own
/// vector grown to every node's length, [`Node::Vacant`] elsewhere. It
/// works from the back: a node's id is never below its slot, so each
/// node moves up into a vacancy or stays, and one shard's nodes all stay.
fn spread<P: Plane>(map: &ShardMap, mut nodes: Vec<Node<P>>) -> Vec<Node<P>> {
    nodes.resize_with(map.shard_of.len(), || Node::Vacant);
    for id in (0..nodes.len()).rev().filter(|&id| map.shard_of[id] == 0) {
        nodes.swap(id, map.slot_of[id] as usize);
    }
    nodes
}
