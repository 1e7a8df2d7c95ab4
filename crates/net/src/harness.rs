//! The plane harness: everything about assembling and running a
//! mechanism that is not mechanism logic.
//!
//! A mechanism implements [`Plane`] — its node types, a factory for its
//! routers, providers and users, their packet reactions, its stamp at an
//! access point and its report fold — and the harness does the rest,
//! once for every mechanism:
//!
//! * **world construction** — seed → RNG, [`Topology`], [`Links`], every
//!   router's FIB rows: once per run, on the calling thread; the
//!   [`Catalog`] once per shard, on its thread, from [`RunSpec`]'s
//!   objects, chunks and Zipf α, so shards share no name;
//! * **transport configuration** — the attacker-churn schedule and the
//!   [`EdgeDefense`] membership lists, derived from the topology roles;
//! * **shared node bookkeeping** — the one [`NodePlane`] implementation,
//!   hosting any plane: every access point's [`ApRelay`] and its relay
//!   (with a 4 s TTL on unanswered Interests), FIB rows at build and on
//!   a full-replacement reroute, each user's Data and NACKs (the
//!   retrieval reported once to the protocol observer, then handed to its
//!   [`Requester`]), the attack-fleet tick ([`fleet_tick`]), each user's
//!   one armed wake-up (armed before the Interests it covers go out),
//!   move-last fan-out ([`fan_out`]), per-sweep PIT/CS sums and sampler
//!   rows. Monomorphised per mechanism; nothing on the per-event path is
//!   `dyn`;
//! * **running** — [`run`] executes on the calling thread for one shard
//!   and through partition → epoch coordinator → node stitch → report
//!   merge for more, and either way returns a [`ShardedStats`], so no
//!   caller branches on the shard count.
//!
//! # Partition-owned shards
//!
//! A run owns one [`World`] and every node one shard. The shards of a
//! sharded run borrow the world, and the full face table is divided among
//! them row by row, not copied. Each materialises — node state, face
//! rows and index, link lanes, defense buckets, the calendar of events
//! homed at them — only the nodes the partition gave it
//! ([`Shard::owns`]). What every shard keeps at full length is what the
//! event path indexes by [`NodeId`] — node slots (pinned at ≤ 64 B), the
//! empty row headers, per-node RNG streams and event-key counters,
//! `shard_of`, the fault layer's down flags: about 180 B a node and
//! shard — so there is no local-id translation and one shard is simply
//! the shard that owns everything. Each shard processes the events homed
//! at its own nodes (see [`sharded`](crate::sharded)); the stitch takes
//! each node from the one shard that has it and is the one place reports
//! merge: order-invariant sums add, high-water marks max, mirrored event
//! counts de-duplicate ([`TransportReport::merge_shards`]).
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
//! 3. [`Plane::build`] is the node factory, under the contract above;
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
use tactic_topology::graph::NodeId;
use tactic_topology::paper::TopologyChoice;
use tactic_topology::roles::Topology;
use tactic_topology::shard::{ShardError, ShardMap};

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
use crate::sharded::{run_sharded_profiled, ShardedStats};
use crate::transport::{Net, NetConfig, ShardSpec, TransportReport};

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
    /// Builds the run's one world, and the full face tables its shards
    /// divide among themselves.
    fn world(&self, seed: u64) -> (World, Links) {
        let rng = Rng::seed_from_u64(seed ^ self.stream);
        let topo = self.topology.build(seed, &rng);
        let links = Links::build(&topo);
        let routes = populate_fib(&topo, &links);
        let world = World {
            seed,
            rng,
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

/// What a run builds once and its shards share by reference: the same
/// for every mechanism given the same [`RunSpec`] and seed.
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
}

/// One shard's share of a [`World`]: what a node factory builds from.
#[derive(Debug)]
pub struct Shard<'a> {
    /// The shared world.
    pub world: &'a World,
    /// Face tables in adjacency order: the rows of this shard's own
    /// nodes, empty rows elsewhere.
    pub links: &'a Links,
    /// The content catalog, this shard's own.
    pub catalog: Arc<Catalog>,
    spec: Option<&'a ShardSpec>,
}

impl Shard<'_> {
    /// Whether `node` is this shard's to materialise (always, when the
    /// run has one shard).
    pub fn owns(&self, node: NodeId) -> bool {
        self.spec.is_none_or(|s| s.owns(node))
    }
}

/// One node's state. The kinds are the topology's roles, the same for
/// every mechanism; what a router, provider or user *is* is the plane's.
pub enum Node<P: Plane> {
    /// A core or edge router.
    Router(Box<P::Router>),
    /// A content provider.
    Provider(Box<P::Provider>),
    /// A client or attacker.
    User(Box<P::User>),
    /// An attacker fielded as an open-loop traffic source: the windowed
    /// requester this silences (kept for the report), the driver that
    /// crafts its Interests and the pacer that says how many are due. The
    /// harness runs it ([`fleet_tick`]); no packet reaches the plane here.
    Fleet(Box<P::User>, Box<P::Driver>, Pacer),
    /// An access point, built and run by the harness.
    Ap(ApRelay),
    /// A node another shard owns: no state here, and no event either.
    Foreign,
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

    /// The node factory: one slot per topology node, in node-id order —
    /// the state of each router, provider and user where [`Shard::owns`]
    /// it, [`Node::Foreign`] elsewhere and at every access point (the
    /// harness builds those, and installs every router's FIB rows once
    /// this returns); an attacker is a [`Node::Fleet`] while
    /// [`AttackPlan::fleet_class`] names a class. Called once per shard,
    /// on that shard's thread.
    ///
    /// The contract: an owned node's state is bit for bit what the
    /// one-shard build gives it. Per-node inputs make that free — fork
    /// [`World::rng`] by node id, read the node's own [`Shard::links`]
    /// row and the [`Shard::catalog`]. What one node's construction does
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

/// Installs each of `routes` at its router, where `nodes` holds it.
fn install_routes<P: Plane>(nodes: &mut [Node<P>], routes: &[FibRoute]) {
    for route in routes {
        if let Node::Router(r) = &mut nodes[route.router.index()] {
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
    /// Indexed by [`NodeId`]; [`Node::Foreign`] where another shard owns
    /// the node, so every sweep below is a sweep over this shard's own.
    nodes: Vec<Node<P>>,
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
        if let Node::User(user) = &mut self.nodes[node.index()] {
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
        let station = match &mut self.nodes[node.index()] {
            Node::Router(r) => Station::Router(&mut **r),
            Node::Provider(p) => Station::Provider(&mut **p),
            Node::Ap(ap) => return relay::<P>(ap, face, packet, ctx.now, out),
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
            Node::Fleet(..) | Node::Foreign => return,
        };
        (self.plane).on_packet(station, node, face, packet, &mut self.proto, ctx, out);
    }

    fn on_start(&mut self, node: NodeId, ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {
        if matches!(self.nodes[node.index()], Node::Fleet(..)) {
            // Arm the attack pacer instead of the windowed requester.
            return out.push(Emit::Timeout { delay: TICK });
        }
        self.drive(node, ctx.now, out, |user, _, _, sends| {
            user.fill(ctx.now, sends)
        });
    }

    fn on_timeout(&mut self, node: NodeId, ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {
        if let Node::Fleet(_, driver, pacer) = &mut self.nodes[node.index()] {
            let hop = user_hop(node, ctx.now);
            fleet_tick(&mut **driver, pacer, &mut self.proto, hop, out);
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
            match node {
                Node::Router(r) => {
                    let tables = P::tables(r);
                    pit += tables.pit.total_records() as u64;
                    cs += tables.cs.len() as u64;
                    tables.pit.purge_expired(now);
                }
                Node::Ap(ap) => ap.purge(now, AP_PURGE_TTL),
                _ => {}
            }
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
        install_routes(&mut self.nodes, routes);
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
/// their own merge operations) and the coordinator's stats. One shard
/// is the degenerate case: one-element vectors, no epochs, no edge cut.
pub type Run<P, O, PO> = (<P as Plane>::Report, Vec<O>, Vec<PO>, ShardedStats);

/// A plane assembled on the calling thread, every node built, ready to
/// [`run`](Assembled::run).
pub struct Assembled<'a, P: Plane, O = NoopObserver, PO = NoopProtocolObserver>(
    Net<Hosted<'a, P, PO>, O>,
);

impl<P: Plane, O: NetObserver, PO: ProtocolObserver> Assembled<'_, P, O, PO> {
    /// Runs to the horizon on the calling thread.
    pub fn run(self) -> Run<P, O, PO> {
        let shard = self.0.run();
        let stats = ShardedStats {
            k: 1,
            epochs: 0,
            cross_events: 0,
            edge_cut: 0,
            per_shard_events: vec![shard.2.events],
            per_shard_peak_queue: vec![shard.2.peak_queue_depth],
            per_shard_peak_pit: Vec::new(),
            per_shard_peak_cs: Vec::new(),
            epoch_spans: Vec::new(),
        };
        fold(vec![shard], stats)
    }
}

/// Builds the world and every node of `plane` for `seed`, without
/// running it (so set-up and run can be timed apart).
pub fn assemble<P: Plane, O: NetObserver, PO: ProtocolObserver>(
    plane: &P,
    seed: u64,
    observer: O,
    proto: PO,
) -> Assembled<'_, P, O, PO> {
    let run = plane.run_spec();
    let (world, links) = run.world(seed);
    Assembled(assemble_shard(
        plane, run, &world, links, None, observer, proto,
    ))
}

/// One shard of a run over `world`: `links` holds the rows of the nodes
/// `spec` gives it, and `None` is the one shard that owns everything.
fn assemble_shard<'a, P: Plane, O: NetObserver, PO: ProtocolObserver>(
    plane: &'a P,
    run: RunSpec,
    world: &World,
    links: Links,
    spec: Option<ShardSpec>,
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
        links: &links,
        catalog,
        spec: spec.as_ref(),
    };
    let mut nodes = plane.build(&shard);
    for &ap in topo.access_points.iter().filter(|&&ap| shard.owns(ap)) {
        let relay = ApRelay::new(topo, &links, ap).expect("validated topology: AP wired");
        nodes[ap.index()] = Node::Ap(relay);
    }
    install_routes(&mut nodes, &world.routes);
    let hosted = Hosted {
        plane,
        nodes,
        pit_sweep_sums: Vec::new(),
        cs_sweep_sums: Vec::new(),
        sends: Vec::new(),
        proto,
    };
    let config = run.into_net_config(&world.topo, |&node| shard.owns(node));
    let rng = world.rng.clone();
    Net::assemble_inner(&world.topo, links, hosted, rng, config, observer, spec)
}

/// Runs `plane` for `seed` across `shards` worker threads, with
/// per-shard transport and protocol observers.
///
/// `shards == 1` executes on the calling thread; more shards partition
/// the one world built here and synchronise at lookahead barriers (see
/// the module docs). The report is byte-identical for every shard count
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
    if shards == 1 {
        return Ok(assemble(plane, seed, make_observer(0), make_proto(0)).run());
    }
    let spec = plane.run_spec();
    let (world, mut links) = spec.world(seed);
    let map = ShardMap::partition(&world.topo, shards)?;
    // Client mobility, or an attacker-churn plan riding the same Move
    // events: either re-points radio links across shard boundaries at
    // will, so the lookahead must conservatively account for both.
    let lookahead = map.lookahead(spec.mobility.is_some() || spec.attack.churns());
    let horizon = SimTime::ZERO + spec.duration;
    // Each worker collects the rows of its own nodes as it starts; what
    // is left of the full table once the others' are out is shard 0's.
    let mut parts: Vec<Links> = (1..shards as u32)
        .map(|s| links.take_rows(|node| map.shard_of(node) == s))
        .collect();
    parts.insert(0, links);
    let parts: Vec<Mutex<Option<Links>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let (results, mut stats) =
        run_sharded_profiled(shards, lookahead, horizon, spec.profile, |s| {
            let links = parts[s as usize]
                .lock()
                .expect("no holder of this lock can panic")
                .take()
                .expect("a shard is built once");
            let shard = ShardSpec {
                k: shards,
                my_shard: s,
                shard_of: map.shard_of.clone(),
            };
            let (observer, proto) = (make_observer(s), make_proto(s));
            assemble_shard(
                plane,
                spec.clone(),
                &world,
                links,
                Some(shard),
                observer,
                proto,
            )
        });
    stats.edge_cut = map.edge_cut;
    Ok(fold(results, stats))
}

/// The single stitch/merge: takes each node from the one shard that has
/// it, folds the mirrored per-sweep PIT/CS sums element-wise (each
/// shard's own maxima feed `stats` before the fold erases them), merges
/// the transport totals and hands all of it to the mechanism's report
/// fold.
fn fold<P: Plane, O, PO>(
    results: Vec<(Hosted<'_, P, PO>, O, TransportReport)>,
    mut stats: ShardedStats,
) -> Run<P, O, PO> {
    fn peak(sums: &[u64]) -> u64 {
        sums.iter().copied().max().unwrap_or(0)
    }
    fn add(total: &mut Vec<u64>, sums: &[u64]) {
        total.resize(total.len().max(sums.len()), 0);
        for (t, v) in total.iter_mut().zip(sums) {
            *t += v;
        }
    }

    let plane = results
        .first()
        .expect("a run has at least one shard")
        .0
        .plane;
    let mut nodes: Vec<Node<P>> = Vec::new();
    let (mut observers, mut protos, mut transports) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pit_sums, mut cs_sums) = (Vec::new(), Vec::new());
    for (hosted, observer, transport) in results {
        stats.per_shard_peak_pit.push(peak(&hosted.pit_sweep_sums));
        stats.per_shard_peak_cs.push(peak(&hosted.cs_sweep_sums));
        add(&mut pit_sums, &hosted.pit_sweep_sums);
        add(&mut cs_sums, &hosted.cs_sweep_sums);
        if nodes.is_empty() {
            nodes = hosted.nodes;
        } else {
            for (slot, node) in nodes.iter_mut().zip(hosted.nodes) {
                if !matches!(node, Node::Foreign) {
                    debug_assert!(matches!(slot, Node::Foreign), "a node has one owner");
                    *slot = node;
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
