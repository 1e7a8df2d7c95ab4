//! The shared event loop: engine-driven dispatch, FIFO link serialisation
//! + propagation, and the mobility/handover model.
//!
//! [`Net`] owns everything mechanism-independent about a run — the
//! [`Engine`], the mutable face tables, per-directed-link busy times, the
//! per-node RNG streams, and the cost model — and drives a [`NodePlane`]
//! through it. An [`Emit::Send`] goes through FIFO link serialisation
//! (`depart = max(now + compute, link_busy)`, arrival after serialisation
//! at the link's bandwidth plus propagation); an [`Emit::Timeout`] arms a
//! node's wake-up, and one that falls while its node is down reaches the
//! plane only as [`NodePlane::on_timeout_skipped`]. A handover re-wires a
//! mobile client's face 0 to a new access point; in-flight packets whose
//! reverse mapping the move tore down are dropped and counted, never a
//! panic.
//!
//! # Shard-invariant determinism
//!
//! Every scheduled event carries an explicit **key** instead of a global
//! sequence number: `(source node) << 40 | per-source counter` (with two
//! reserved source ids for the purge sweep and the fault schedule). A
//! node's counter advances only when *its own* events schedule work, so
//! the key assigned to an event is independent of how other nodes'
//! events interleave — the property that lets K shards, each processing
//! only the events homed at its own nodes, reproduce the exact
//! `(time, key)` total order of the sequential run. For the same reason
//! all RNG draws are per-node streams (forked, never shared), loss draws
//! are per-directed-link (see `FaultState` in the fault module), and a
//! packet's arrival face is resolved at *delivery* time from the
//! receiver's own face
//! table rather than at send time from the sender's view of it.
//!
//! In sharded mode ([`Net::assemble_sharded`]) a shard keeps per-node
//! state — face-table rows, link lanes, whatever its plane holds — for
//! its own nodes only, in tables every shard still indexes by [`NodeId`],
//! and schedules events homed at foreign nodes into
//! per-destination-shard **outboxes** instead of its own calendar; the
//! epoch loop trades them between shards at its barrier
//! ([`Net::run_epoch`] / [`Net::swap_outboxes`] / [`Net::inject`]).
//! Purge, fault and sample events are mirrored in every shard (same
//! keys): each is that shard's sweep over its own nodes, and the little
//! they touch that is not per-node (which nodes and links are down)
//! stays bit-identical everywhere.
//!
//! # Parked packets
//!
//! A packet on its way to a node this instance owns is written once, when
//! it is scheduled, into a free-listed slab (`PacketSlab`) and taken
//! out once, when it is delivered; the calendar orders and moves a
//! [`Parked`] handle in a 32-byte event, not the packet. A delivery past
//! the horizon parks nothing — the engine counts it without building its
//! event. Cross-shard mail ([`Mail`]) carries the packet by value, since a
//! slab belongs to the instance that filled it.
//!
//! # Ownership on the data path
//!
//! Packets move; a clone marks fan-out. Planes receive packets by value,
//! decide in PIT-record order (RNG draws, counters and observer calls all
//! happen in that loop), then materialise their sends so the *last*
//! downstream takes the packet by move and only earlier ones — genuine
//! fan-out — clone (`harness::fan_out`). A clone in data-path code thus
//! states that two owners coexist; one the compiler can prove unneeded
//! fails CI's `clippy::redundant_clone` step. No handler returns its
//! packets in a fresh `Vec`: they push into the transport's reused
//! [`Emit`] buffer, or into a sink the plane hands them, and a user's
//! Interests into one vector the harness keeps for the whole run.
//!
//! Ids are dense `u32`s, so per-node state is indexed, not probed. Each
//! node's link tables — neighbours by face, the peer → face index behind
//! [`Links::face_toward`], and the
//! `link_busy` lanes, keyed by destination node because a handover
//! re-targets a face while the physical lane persists — are one row of
//! [`Records`] each, which keep their first entry in place: a user, most
//! of a fleet, has one link and so no heap row. `tests/alloc_budget.rs`
//! holds the steady state exactly: a warmed router forwards an Interest,
//! handles its Data, serves a cache hit and fans out with no allocation,
//! and whole short runs stay under their per-Interest ceilings.

use tactic_ndn::face::FaceId;
use tactic_ndn::packet::Packet;
use tactic_ndn::records::Records;
use tactic_ndn::wire::wire_size;
use tactic_sim::cost::CostModel;
use tactic_sim::dist::Exponential;
use tactic_sim::engine::Engine;
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::{SampleRow, SpanProfiler};
use tactic_topology::graph::{LinkSpec, NodeId};
use tactic_topology::roles::Topology;

use crate::attack::{ChurnConfig, EdgeDefense};
use crate::fault::{FaultPlan, FaultState};
use crate::links::{fib_routes_owned, rows, Links};
use crate::mobility::MobilityConfig;
use crate::observer::{DropReason, DropTotals, NetObserver, NoopObserver};
use crate::plane::{Emit, NodePlane, PlaneCtx};

/// RNG stream id for the fault layer's dedicated loss stream: forked off
/// the run RNG before any other use, so loss draws never perturb the
/// simulation's own streams.
const FAULT_STREAM: u64 = 0xFA17_0001;

/// Base stream id for per-node RNG streams (`NODE_STREAM ^ node index`).
const NODE_STREAM: u64 = 0x4E0D_0000_0000_0000;

/// Event keys pack `source << KEY_SHIFT | counter`.
const KEY_SHIFT: u32 = 40;

/// Reserved key source for the periodic purge sweep (mirrored in every
/// shard with identical keys).
const PURGE_SRC: u64 = 0xFF_FFFF;

/// Reserved key source for scheduled fault events (mirrored in every
/// shard; the counter is the schedule index, so keys are static).
const FAULT_SRC: u64 = 0xFF_FFFE;

/// Reserved key source for the periodic sampler tick (mirrored in every
/// shard with identical keys, like purges). Numerically below `FAULT_SRC`
/// and `PURGE_SRC` but above every node id, so at equal timestamps the
/// deterministic order is: node events, then the sample, then faults,
/// then the purge — identically in the sequential engine and every shard.
const SAMPLE_SRC: u64 = 0xFF_FFFD;

/// The most nodes a run can key: every node id must stay below the
/// reserved sources, or the node's events would take the sampler's, the
/// faults' or the purge's keys (and above 2²⁴ a node's id would shift out
/// of its key altogether). It also keeps every principal — a user's node
/// index — inside the 24 bits a nonce gives it
/// ([`compose_nonce`](crate::requester::compose_nonce)).
const MAX_NODES: usize = SAMPLE_SRC as usize;

// Node ids sort below the sampler, the faults and the purge, and all of
// them fit above the per-source counter.
const _: () =
    assert!(SAMPLE_SRC < FAULT_SRC && FAULT_SRC < PURGE_SRC && PURGE_SRC < 1 << (64 - KEY_SHIFT));

/// Rejects a topology of `nodes` nodes if event keys cannot tell them
/// apart from each other and from the reserved sources.
///
/// # Panics
///
/// Panics if `nodes` exceeds [`MAX_NODES`].
fn check_keyable(nodes: usize) {
    assert!(
        nodes <= MAX_NODES,
        "a topology of {nodes} nodes exceeds the {MAX_NODES} (0xFF_FFFD) an event key can hold: \
         node ids from 0xFF_FFFD up are the sampler's, the faults' and the purge's"
    );
}

/// An event with its absolute time and shard-invariant key, as exchanged
/// through cross-shard mailboxes.
pub type KeyedEvent = (SimTime, u64, Mail);

/// An event homed at another shard's node, as it crosses a mailbox.
#[derive(Debug)]
pub enum Mail {
    /// A packet for `node`, by value (see [`NetEvent::Deliver`]).
    Deliver {
        /// Receiving node.
        node: NodeId,
        /// Transmitting neighbour.
        from: NodeId,
        /// The packet.
        packet: Packet,
    },
    /// An event that carries no packet.
    Event(NetEvent),
}

/// A packet's slot in the packet slab of the instance that will deliver
/// it.
#[derive(Debug)]
pub struct Parked(u32);

/// Packets in flight toward this instance's nodes, each written once by
/// [`PacketSlab::park`] and taken once by [`PacketSlab::take`]. Vacated
/// slots are reused first, so the slab stays at the peak in-flight
/// population.
#[derive(Debug, Default)]
struct PacketSlab {
    packets: Vec<Option<Packet>>,
    vacant: Vec<u32>,
}

impl PacketSlab {
    fn park(&mut self, packet: Packet) -> Parked {
        match self.vacant.pop() {
            Some(slot) => {
                self.packets[slot as usize] = Some(packet);
                Parked(slot)
            }
            None => {
                let slot = u32::try_from(self.packets.len()).expect("fewer than 2^32 packets");
                self.packets.push(Some(packet));
                Parked(slot)
            }
        }
    }

    fn take(&mut self, Parked(slot): Parked) -> Packet {
        self.vacant.push(slot);
        self.packets[slot as usize]
            .take()
            .expect("a parked slot holds its packet")
    }
}

/// Events flowing through the shared engine.
#[derive(Debug)]
pub enum NetEvent {
    /// A packet finishes arriving at `node` from neighbour `from`. The
    /// arrival *face* is resolved from the receiver's face table when the
    /// event is handled — the receiver's shard owns that table.
    Deliver {
        /// Receiving node.
        node: NodeId,
        /// Transmitting neighbour.
        from: NodeId,
        /// The packet, parked until delivery.
        packet: Parked,
    },
    /// A consumer begins its request loop.
    ConsumerStart {
        /// The consumer node.
        node: NodeId,
    },
    /// A node's armed wake-up: a user's earliest request deadline, or an
    /// attack fleet's pacing tick.
    Timeout {
        /// The node woken.
        node: NodeId,
    },
    /// Periodic PIT / relay-state expiry sweep.
    Purge,
    /// A mobile client hands over to a new access point.
    Move {
        /// The mobile node.
        node: NodeId,
    },
    /// A handover's attach signal reaches the new access point: the AP
    /// wires a face back toward the client. Scheduled one radio
    /// propagation delay after the handover, so it crosses shard
    /// boundaries like any other packet.
    Attach {
        /// The access point gaining the face.
        ap: NodeId,
        /// The client that moved in.
        client: NodeId,
        /// The radio link spec.
        spec: LinkSpec,
    },
    /// A scheduled fault takes effect.
    Fault {
        /// Index into the [`FaultPlan`]'s schedule.
        index: usize,
    },
    /// The periodic in-flight sampler snapshots transport and plane
    /// gauges into a [`SampleRow`] (only scheduled when
    /// [`NetConfig::sample_every`] is set — a disabled sampler costs
    /// nothing).
    SampleTick,
}

/// Transport-level configuration distilled from a plane's scenario.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Simulated duration (the engine horizon).
    pub duration: SimDuration,
    /// Client mobility (`None` = static evaluation).
    pub mobility: Option<MobilityConfig>,
    /// Computation-cost injection model handed to plane callbacks.
    pub cost: CostModel,
    /// Fault-injection plan ([`FaultPlan::none()`] = fault-free run).
    pub faults: FaultPlan,
    /// Sim-time sampling cadence (`None` = sampler disabled, the
    /// zero-cost default). When set, a mirrored [`NetEvent::SampleTick`]
    /// fires every interval and appends one [`SampleRow`].
    pub sample_every: Option<SimDuration>,
    /// Enables the wall-clock span profiler (nondeterministic,
    /// non-golden; off by default and zero-cost when off).
    pub profile: bool,
    /// Edge defenses (token-bucket rate limit, per-face fairness cap)
    /// the transport enforces at send time. `None` — the default — runs
    /// zero checks and allocates nothing.
    pub defense: Option<EdgeDefense>,
    /// Attacker mobility churn: listed nodes re-attach with their own
    /// aggressive dwell, alongside (and independent of) client mobility.
    pub churn: Option<ChurnConfig>,
}

/// What the transport itself measured in one run (or one shard of one).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransportReport {
    /// Engine events processed (all kinds).
    pub events: u64,
    /// `Deliver` events handled (each seen by the plane and the observer
    /// exactly once).
    pub deliveries: u64,
    /// Handovers performed by mobile clients.
    pub moves: u64,
    /// Purge sweeps processed. In a sharded run every shard processes
    /// every sweep, so the merged event total subtracts the duplicates.
    pub purges: u64,
    /// Scheduled fault events applied (mirrored per shard, like purges).
    pub faults_applied: u64,
    /// Sampler ticks processed (mirrored per shard, like purges).
    pub samples_taken: u64,
    /// High-water mark of the engine's pending-event queue.
    pub peak_queue_depth: u64,
    /// Per-reason drop totals counted by the transport itself.
    pub drops: DropTotals,
    /// The sampler's time series (empty when disabled). Deterministic
    /// and golden: a K-sharded merge is byte-identical to sequential.
    pub samples: Vec<SampleRow>,
    /// The wall-clock span profiler, when enabled (nondeterministic,
    /// excluded from every byte-identity comparison — populated runs
    /// must never be compared with `==`).
    pub profile: Option<Box<SpanProfiler>>,
}

impl TransportReport {
    /// Folds per-shard reports into the sequential-equivalent totals:
    /// purge sweeps and fault applications are mirrored in every shard,
    /// so the event total subtracts the `K - 1` duplicate copies;
    /// everything else happens in exactly one shard and sums; the queue
    /// peak is a per-engine quantity, so the merged value is the max.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn merge_shards(shards: &[TransportReport]) -> TransportReport {
        let k = shards.len() as u64;
        let purges = shards[0].purges;
        let faults_applied = shards[0].faults_applied;
        let samples_taken = shards[0].samples_taken;
        debug_assert!(
            shards.iter().all(|t| t.purges == purges
                && t.faults_applied == faults_applied
                && t.samples_taken == samples_taken),
            "mirrored event counts must agree across shards"
        );
        let mut drops = DropTotals::default();
        for t in shards {
            drops.merge(&t.drops);
        }
        let samples = tactic_telemetry::merge_timeseries(shards.iter().map(|t| &t.samples[..]));
        let mut profile: Option<Box<SpanProfiler>> = None;
        for t in shards {
            if let Some(p) = &t.profile {
                profile.get_or_insert_with(Default::default).merge(p);
            }
        }
        TransportReport {
            events: shards.iter().map(|t| t.events).sum::<u64>()
                - (k - 1) * (purges + faults_applied + samples_taken),
            deliveries: shards.iter().map(|t| t.deliveries).sum(),
            moves: shards.iter().map(|t| t.moves).sum(),
            purges,
            faults_applied,
            samples_taken,
            peak_queue_depth: shards.iter().map(|t| t.peak_queue_depth).max().unwrap_or(0),
            drops,
            samples,
            profile,
        }
    }
}

/// How one [`Net`] instance participates in a sharded run: which shard it
/// is, and which shard owns every node.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Total number of shards.
    pub k: usize,
    /// This instance's shard id.
    pub my_shard: u32,
    /// Per node (by index): the owning shard.
    pub shard_of: Vec<u32>,
}

impl ShardSpec {
    /// True when `node` is this shard's.
    pub fn owns(&self, node: NodeId) -> bool {
        self.shard_of[node.index()] == self.my_shard
    }
}

/// The assembled simulation: shared transport state driving a plane.
pub struct Net<P, O = NoopObserver> {
    engine: Engine<NetEvent>,
    links: Links,
    /// Per directed link: when the transmitter is free again. Flat
    /// storage: indexed by source node, sorted by destination node id —
    /// keyed by node pair (not face) because a handover re-points face 0
    /// at a new AP while the old link's busy horizon must stay with the
    /// old destination. A user's one lane stays inside its row.
    link_busy: Vec<Records<(NodeId, SimTime)>>,
    /// Per-node RNG streams: every draw a node's events make comes from
    /// its own stream, so draw sequences are interleaving-independent.
    rngs: Vec<Rng>,
    /// Per-node event-key counters (see module docs).
    key_seq: Vec<u64>,
    purge_seq: u64,
    cost: CostModel,
    access_points: Vec<NodeId>,
    mobility: Option<MobilityConfig>,
    moves: u64,
    deliveries: u64,
    purges: u64,
    faults_applied: u64,
    /// Packets accepted onto a link (counted after the send-side drop
    /// checks, so `sent - delivered - delivery-side drops` is the
    /// in-flight population the sampler reports).
    sent: u64,
    /// Sampler cadence (copied from [`NetConfig::sample_every`]).
    sample_every: Option<SimDuration>,
    sample_seq: u64,
    samples: Vec<SampleRow>,
    /// Length of the fault schedule: together with `faults_applied` it
    /// tells the sampler how many mirrored fault events are still
    /// pending, which non-zero shards subtract from their queue-depth
    /// contribution (see [`Net::take_sample`]).
    fault_sched_len: usize,
    /// The wall-clock span profiler (`None` unless
    /// [`NetConfig::profile`] — the disabled path costs one branch).
    profiler: Option<Box<SpanProfiler>>,
    faults: FaultState,
    /// Retained topology for route recomputation at failure instants
    /// (only kept when the plan schedules topology changes).
    fault_topo: Option<Topology>,
    drops: DropTotals,
    /// Edge defenses with their runtime state (`None` = no checks).
    defense: Option<EdgeDefense>,
    /// Churn schedule for adversarial mobility (`None` = none).
    churn: Option<ChurnConfig>,
    shard: Option<ShardSpec>,
    /// Per destination shard: events homed at foreign nodes, awaiting the
    /// epoch barrier. Always empty in sequential mode.
    outboxes: Vec<Vec<KeyedEvent>>,
    /// The earliest timestamp in `outboxes` ([`SimTime::MAX`] when they
    /// are empty), kept as they fill so nobody re-reads them to find it.
    outbox_min: SimTime,
    /// The packets of the queued `Deliver` events.
    parked: PacketSlab,
    plane: P,
    observer: O,
    scratch: Vec<Emit>,
}

impl<P, O> std::fmt::Debug for Net<P, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Net")
            .field("nodes", &self.links.neighbors.len())
            .field("now", &self.engine.now())
            .field("horizon", &self.engine.horizon())
            .finish()
    }
}

impl<P: NodePlane> Net<P, NoopObserver> {
    /// Assembles a run with the zero-cost no-op observer.
    pub fn assemble(topo: &Topology, links: Links, plane: P, rng: Rng, config: NetConfig) -> Self {
        Self::assemble_observed(topo, links, plane, rng, config, NoopObserver)
    }
}

impl<P: NodePlane, O: NetObserver> Net<P, O> {
    /// Assembles a sequential run: schedules the consumer starts
    /// (staggered over the first second), the periodic purge sweep, and —
    /// when mobility is configured — the first handover of each mobile
    /// client.
    ///
    /// # Panics
    ///
    /// Panics if the topology has more than 0xFF_FFFD nodes (event keys
    /// could not tell them from the reserved sources), or if
    /// `config.mobility` has a `mobile_fraction` outside `[0, 1]`.
    pub fn assemble_observed(
        topo: &Topology,
        links: Links,
        plane: P,
        rng: Rng,
        config: NetConfig,
        observer: O,
    ) -> Self {
        Self::assemble_inner(topo, links, plane, rng, config, observer, None)
    }

    /// Assembles one shard of a sharded run: identical to
    /// [`Net::assemble_observed`] except that only events homed at this
    /// shard's own nodes enter the calendar (purge, fault and sample
    /// events are mirrored everywhere), and events for foreign nodes
    /// route into outboxes instead of the local calendar.
    ///
    /// Every shard must be assembled from the same topology and RNG.
    /// `links` may be the full table or just this shard's rows: the rows
    /// of foreign nodes are dropped here, and `plane` is never asked
    /// about a foreign node either.
    ///
    /// # Panics
    ///
    /// Panics if `shard.shard_of` does not cover the topology, or on a
    /// topology past 0xFF_FFFD nodes or an out-of-range `mobile_fraction`
    /// (as in the sequential path).
    pub fn assemble_sharded(
        topo: &Topology,
        mut links: Links,
        plane: P,
        rng: Rng,
        config: NetConfig,
        observer: O,
        shard: ShardSpec,
    ) -> Self {
        assert_eq!(
            shard.shard_of.len(),
            topo.graph.node_count(),
            "shard map must cover the topology"
        );
        let links = links.take_rows(|node| shard.owns(node));
        Self::assemble_inner(topo, links, plane, rng, config, observer, Some(shard))
    }

    /// `links` holds no row of a node `shard` does not own (`None` owns
    /// every node).
    pub(crate) fn assemble_inner(
        topo: &Topology,
        links: Links,
        plane: P,
        rng: Rng,
        config: NetConfig,
        observer: O,
        shard: Option<ShardSpec>,
    ) -> Self {
        // Forked before any other use (forking never consumes the
        // stream): the loss stream is a pure function of the run seed, so
        // fault draws cannot perturb the simulation's own draw sequence.
        let fault_rng = rng.fork(FAULT_STREAM);
        let n = topo.graph.node_count();
        check_keyable(n);
        let rngs: Vec<Rng> = (0..n).map(|i| rng.fork(NODE_STREAM ^ i as u64)).collect();

        let fault_topo = if config.faults.schedule.is_empty() {
            None
        } else {
            Some(topo.clone())
        };
        let fault_sched_len = config.faults.schedule.len();
        let faults = FaultState::new(config.faults.clone(), fault_rng, n);
        let k = shard.as_ref().map_or(1, |s| s.k);
        let cost = config.cost.clone();

        let mut net = Net {
            engine: Engine::with_horizon(SimTime::ZERO + config.duration),
            links,
            link_busy: rows(n),
            rngs,
            key_seq: vec![0; n],
            purge_seq: 0,
            cost,
            access_points: topo.access_points.clone(),
            mobility: config.mobility,
            moves: 0,
            deliveries: 0,
            purges: 0,
            faults_applied: 0,
            sent: 0,
            sample_every: config.sample_every,
            sample_seq: 0,
            samples: Vec::new(),
            fault_sched_len,
            profiler: config.profile.then(Box::default),
            faults,
            fault_topo,
            drops: DropTotals::default(),
            defense: config.defense.clone(),
            churn: config.churn.clone(),
            shard,
            outboxes: (0..k).map(|_| Vec::new()).collect(),
            outbox_min: SimTime::MAX,
            parked: PacketSlab::default(),
            plane,
            observer,
            scratch: Vec::new(),
        };
        net.bootstrap(topo, &config);
        net
    }

    /// Schedules the initial event population. Keys and RNG draws are all
    /// per-source, so skipping foreign nodes in sharded mode cannot
    /// perturb what the owned nodes see.
    fn bootstrap(&mut self, topo: &Topology, config: &NetConfig) {
        for unode in topo.users() {
            if !self.owns(unode) {
                continue;
            }
            let offset = SimDuration::from_nanos(self.rngs[unode.index()].below(1_000_000_000));
            let key = self.next_key(unode);
            self.engine.schedule_keyed(
                SimTime::ZERO + offset,
                key,
                NetEvent::ConsumerStart { node: unode },
            );
        }
        let key = self.next_purge_key();
        self.engine
            .schedule_keyed(SimTime::from_secs(1), key, NetEvent::Purge);

        // Mirrored in every shard, like the purge: the first tick fires
        // one interval in (tick 0), and each tick reschedules the next.
        // A tick past the horizon is counted by the engine, never
        // stored or popped, so the sampler terminates with the run.
        if let Some(every) = config.sample_every {
            assert!(
                every > SimDuration::from_nanos(0),
                "sample_every must be positive"
            );
            let key = self.next_sample_key();
            self.engine
                .schedule_keyed(SimTime::ZERO + every, key, NetEvent::SampleTick);
        }

        if let Some(m) = config.mobility {
            assert!(
                (0.0..=1.0).contains(&m.mobile_fraction),
                "mobile_fraction must be within [0, 1]"
            );
            let dwell = Exponential::from_mean(m.mean_dwell.as_secs_f64().max(1e-3));
            let mobile_count = (topo.clients.len() as f64 * m.mobile_fraction).round() as usize;
            for &c in topo.clients.iter().take(mobile_count) {
                if !self.owns(c) {
                    continue;
                }
                let at = SimTime::from_secs_f64(dwell.sample(&mut self.rngs[c.index()]));
                let key = self.next_key(c);
                self.engine
                    .schedule_keyed(at, key, NetEvent::Move { node: c });
            }
        }

        // Adversarial churn rides the same Move machinery as client
        // mobility, but with its own dwell and its own (attacker) nodes —
        // dwell draws come from each churning node's per-node stream, so
        // they stay within the owning shard like every other draw.
        if let Some(c) = &config.churn {
            let dwell = Exponential::from_mean(c.mean_dwell.as_secs_f64().max(1e-3));
            for &node in &c.nodes {
                if !self.owns(node) {
                    continue;
                }
                let at = SimTime::from_secs_f64(dwell.sample(&mut self.rngs[node.index()]));
                let key = self.next_key(node);
                self.engine.schedule_keyed(at, key, NetEvent::Move { node });
            }
        }

        for (index, event) in config.faults.schedule.iter().enumerate() {
            self.engine.schedule_keyed(
                event.at,
                (FAULT_SRC << KEY_SHIFT) | index as u64,
                NetEvent::Fault { index },
            );
        }
    }

    /// Runs to the horizon; returns the plane (for report aggregation),
    /// the observer, and the transport's own totals.
    pub fn run(mut self) -> (P, O, TransportReport) {
        // The engine stores nothing past its horizon, so this is every
        // event there is.
        self.run_epoch(SimTime::MAX);
        self.finish()
    }

    /// Processes every pending event strictly before `end` (and within
    /// the horizon) — one conservative epoch. Cross-shard output lands in
    /// the outboxes; the caller exchanges them before the next epoch.
    pub fn run_epoch(&mut self, end: SimTime) {
        if self.profiler.is_some() {
            loop {
                let started = std::time::Instant::now();
                let ev = self.engine.pop_before(end);
                let ns = started.elapsed().as_nanos() as u64;
                if let Some(p) = self.profiler.as_deref_mut() {
                    p.record_ns("calendar.pop", ns);
                }
                match ev {
                    Some(ev) => self.dispatch(ev),
                    None => break,
                }
            }
        } else {
            while let Some(ev) = self.engine.pop_before(end) {
                self.dispatch(ev);
            }
        }
    }

    /// The timestamp of the next deliverable event, if any (drives the
    /// epoch loop's idle-jump past empty epochs).
    pub fn next_event_at(&mut self) -> Option<SimTime> {
        self.engine.next_at()
    }

    /// Hands each per-destination-shard outbox to `trade`, which leaves a
    /// drained vector in its place — typically a mailbox slot's, kept for
    /// its capacity — and returns the earliest timestamp they held.
    ///
    /// # Panics
    ///
    /// Panics if `trade` leaves an outbox holding events.
    pub fn swap_outboxes(
        &mut self,
        mut trade: impl FnMut(usize, &mut Vec<KeyedEvent>),
    ) -> Option<SimTime> {
        for (dst, outbox) in self.outboxes.iter_mut().enumerate() {
            trade(dst, outbox);
            assert!(outbox.is_empty(), "a traded outbox comes back drained");
        }
        let earliest = std::mem::replace(&mut self.outbox_min, SimTime::MAX);
        (earliest != SimTime::MAX).then_some(earliest)
    }

    /// Injects events received from other shards' outboxes into the local
    /// calendar. The `(time, key)` pairs already fix the total order, so
    /// injection order is irrelevant to determinism.
    pub fn inject(&mut self, batch: impl IntoIterator<Item = KeyedEvent>) {
        for (at, key, mail) in batch {
            self.post(at, key, mail);
        }
    }

    /// The engine horizon (end of simulated time).
    pub fn horizon(&self) -> SimTime {
        self.engine.horizon()
    }

    /// Tears the run down into its results.
    pub fn finish(self) -> (P, O, TransportReport) {
        let report = TransportReport {
            events: self.engine.processed(),
            deliveries: self.deliveries,
            moves: self.moves,
            purges: self.purges,
            faults_applied: self.faults_applied,
            samples_taken: self.samples.len() as u64,
            peak_queue_depth: self.engine.peak_pending() as u64,
            drops: self.drops,
            samples: self.samples,
            profile: self.profiler,
        };
        (self.plane, self.observer, report)
    }

    /// The current face tables (mutated by handovers as the run proceeds;
    /// one shard of several holds the rows of its own nodes only).
    pub fn links(&self) -> &Links {
        &self.links
    }

    /// The plane, for inspection between assembly and `run`.
    pub fn plane(&self) -> &P {
        &self.plane
    }

    /// True when this instance processes events homed at `node`.
    fn owns(&self, node: NodeId) -> bool {
        self.shard.as_ref().is_none_or(|s| s.owns(node))
    }

    /// Allocates the next shard-invariant event key for `src`.
    fn next_key(&mut self, src: NodeId) -> u64 {
        let c = self.key_seq[src.index()];
        self.key_seq[src.index()] = c + 1;
        ((src.0 as u64) << KEY_SHIFT) | c
    }

    fn next_purge_key(&mut self) -> u64 {
        let c = self.purge_seq;
        self.purge_seq = c + 1;
        (PURGE_SRC << KEY_SHIFT) | c
    }

    fn next_sample_key(&mut self) -> u64 {
        let c = self.sample_seq;
        self.sample_seq = c + 1;
        (SAMPLE_SRC << KEY_SHIFT) | c
    }

    /// Schedules `mail` (homed at `dst`) locally, or into the outbox of
    /// the shard that owns `dst`.
    fn route_to(&mut self, dst: NodeId, at: SimTime, key: u64, mail: Mail) {
        match &self.shard {
            Some(s) if !s.owns(dst) => {
                self.outbox_min = self.outbox_min.min(at);
                self.outboxes[s.shard_of[dst.index()] as usize].push((at, key, mail));
            }
            _ => self.post(at, key, mail),
        }
    }

    /// Schedules `mail` on this instance's calendar, parking its packet
    /// only if the delivery lies within the horizon.
    fn post(&mut self, at: SimTime, key: u64, mail: Mail) {
        match mail {
            Mail::Deliver { node, from, packet } => {
                let parked = &mut self.parked;
                self.engine
                    .schedule_keyed_with(at, key, || NetEvent::Deliver {
                        node,
                        from,
                        packet: parked.park(packet),
                    });
            }
            Mail::Event(ev) => self.engine.schedule_keyed(at, key, ev),
        }
    }

    /// Whether this instance reports mirrored fault events to its
    /// observer (sequential runs and shard 0 only, to avoid K-fold
    /// duplicates in merged observations).
    fn reports_faults(&self) -> bool {
        self.shard.as_ref().is_none_or(|s| s.my_shard == 0)
    }

    /// Dispatches one event, timing it under its class span when the
    /// profiler is on (one `is_none` branch when it is off).
    fn dispatch(&mut self, ev: NetEvent) {
        if self.profiler.is_none() {
            return self.dispatch_inner(ev);
        }
        let name = Self::span_name(&ev);
        let started = std::time::Instant::now();
        self.dispatch_inner(ev);
        let ns = started.elapsed().as_nanos() as u64;
        if let Some(p) = self.profiler.as_deref_mut() {
            p.record_ns(name, ns);
        }
    }

    /// The profiler span class of an event's dispatch.
    fn span_name(ev: &NetEvent) -> &'static str {
        match ev {
            NetEvent::Deliver { .. } => "dispatch.deliver",
            NetEvent::ConsumerStart { .. } => "dispatch.consumer_start",
            NetEvent::Timeout { .. } => "dispatch.timeout",
            NetEvent::Purge => "dispatch.purge",
            NetEvent::Move { .. } => "dispatch.move",
            NetEvent::Attach { .. } => "dispatch.attach",
            NetEvent::Fault { .. } => "dispatch.fault",
            NetEvent::SampleTick => "dispatch.sample",
        }
    }

    fn dispatch_inner(&mut self, ev: NetEvent) {
        let now = self.engine.now();
        match ev {
            NetEvent::Deliver { node, from, packet } => {
                let packet = self.parked.take(packet);
                if self.faults.node_is_down(node) {
                    // A crashed node services nothing: the packet dies at
                    // its door and is never seen by the plane.
                    self.drop_packet(node, DropReason::NodeDown, now);
                    return;
                }
                // Receiver-side face resolution: the face table consulted
                // here belongs to the shard that owns `node`, so a
                // cross-shard sender never needs the receiver's state. A
                // handover may have torn the mapping down while the
                // packet was in flight — the packet is lost with the
                // radio link.
                let Some(face) = self.links.face_toward(node, from) else {
                    self.drop_packet(node, DropReason::ReverseFaceGone, now);
                    return;
                };
                self.deliveries += 1;
                self.observer.on_deliver(node, face, &packet, now);
                self.call_plane(node, |plane, ctx, out| {
                    plane.on_packet(node, face, packet, ctx, out)
                });
            }
            NetEvent::ConsumerStart { node } => {
                if self.faults.node_is_down(node) {
                    return;
                }
                self.call_plane(node, |plane, ctx, out| plane.on_start(node, ctx, out));
            }
            NetEvent::Timeout { node } => {
                if self.faults.node_is_down(node) {
                    return self.call_plane(node, |plane, ctx, out| {
                        plane.on_timeout_skipped(node, ctx.now, out)
                    });
                }
                self.call_plane(node, |plane, ctx, out| plane.on_timeout(node, ctx, out));
            }
            NetEvent::Purge => {
                self.plane.on_purge(now);
                self.purges += 1;
                let key = self.next_purge_key();
                self.engine
                    .schedule_keyed(now + SimDuration::from_secs(1), key, NetEvent::Purge);
            }
            NetEvent::Move { node } => {
                // A crashed client skips the handover itself but keeps
                // its dwell clock running, so mobility (and its RNG
                // draws) resume seamlessly after a NodeUp.
                if !self.faults.node_is_down(node) {
                    self.perform_handover(node);
                }
                // A churning (attacker) node re-arms with the churn
                // dwell; everyone else follows the mobility model.
                let mean_dwell = match &self.churn {
                    Some(c) if c.nodes.binary_search(&node).is_ok() => Some(c.mean_dwell),
                    _ => self.mobility.map(|m| m.mean_dwell),
                };
                if let Some(mean) = mean_dwell {
                    let dwell = Exponential::from_mean(mean.as_secs_f64().max(1e-3));
                    let delay =
                        SimDuration::from_secs_f64(dwell.sample(&mut self.rngs[node.index()]));
                    let key = self.next_key(node);
                    self.engine
                        .schedule_keyed(now + delay, key, NetEvent::Move { node });
                }
            }
            NetEvent::Attach { ap, client, spec } => {
                // The new AP wires a face back toward the client (unless a
                // still-newer handover already did). State mutation, not a
                // service: it happens even while the AP is crashed.
                if self.links.face_toward(ap, client).is_none() {
                    let face = FaceId::new(self.links.neighbors[ap.index()].len() as u32);
                    self.links.neighbors[ap.index()].push((client, spec));
                    self.links.set_face_toward(ap, client, face);
                }
            }
            NetEvent::Fault { index } => {
                let kind = self.faults.apply(index);
                self.faults_applied += 1;
                if self.reports_faults() {
                    self.observer.on_fault(kind, now);
                }
                self.reroute();
            }
            NetEvent::SampleTick => {
                // Snapshot BEFORE rescheduling: the next tick must not
                // be pending at snapshot time, or the queue depth would
                // count it K times across K shards.
                self.take_sample(now);
                if let Some(every) = self.sample_every {
                    let key = self.next_sample_key();
                    self.engine
                        .schedule_keyed(now + every, key, NetEvent::SampleTick);
                }
            }
        }
    }

    /// Appends one [`SampleRow`] for the current instant.
    ///
    /// The queue-depth contribution is **partition-invariant**: summing
    /// every shard's value reproduces the sequential engine's pending
    /// count at the same instant. Each shard counts its calendar plus
    /// its outboxes (an event created this epoch for a foreign node
    /// sits in exactly one producer outbox, and lookahead puts its
    /// arrival past the epoch end, so the sequential run would also
    /// still have it pending; a shard injects its inbox before its epoch
    /// runs, so no event it should count waits in a mailbox). Mirrored
    /// events — the one pending purge, the not-yet-applied fault events,
    /// and nothing else (the sample tick itself is popped and not yet
    /// rescheduled) — exist once per shard but once in the sequential
    /// calendar, so every shard except shard 0 subtracts its copies.
    fn take_sample(&mut self, now: SimTime) {
        let mut depth = self.engine.pending() + self.outboxes.iter().map(Vec::len).sum::<usize>();
        if let Some(s) = &self.shard {
            if s.my_shard != 0 {
                depth -= 1 + (self.fault_sched_len - self.faults_applied as usize);
            }
        }
        let mut row = SampleRow {
            tick: self.samples.len() as u64,
            t_ns: now.as_nanos(),
            queue_depth: depth as u64,
            sent: self.sent,
            delivered: self.deliveries,
            drops: self.drops,
            ..SampleRow::default()
        };
        self.plane.on_sample(now, &mut row);
        self.samples.push(row);
    }

    /// Recomputes the FIB of every router this instance owns over the
    /// currently-usable subgraph (live links between live nodes) and
    /// hands the full replacement set to the plane. Only reachable when
    /// the plan schedules faults.
    fn reroute(&mut self) {
        let Some(topo) = self.fault_topo.as_ref() else {
            return;
        };
        let faults = &self.faults;
        let usable =
            |a, b| !faults.node_is_down(a) && !faults.node_is_down(b) && !faults.link_is_down(a, b);
        let routes = fib_routes_owned(topo, &self.links, usable, |router| self.owns(router));
        self.plane.on_reroute(&routes);
    }

    /// Counts and reports a transport-level drop at `node` (the emitting
    /// node for send-side reasons, the receiver for delivery-side ones).
    fn drop_packet(&mut self, node: NodeId, reason: DropReason, now: SimTime) {
        self.drops.count(reason);
        self.observer.on_drop(node, reason, now);
    }

    /// Runs one plane callback on behalf of `node` at the current instant
    /// and applies what it emits. Planes count the drops that happen
    /// inside their own state straight into the ledger they are handed;
    /// the observer hears of each one here, so it sees every drop the
    /// ledger counts.
    fn call_plane(
        &mut self,
        node: NodeId,
        callback: impl FnOnce(&mut P, &mut PlaneCtx<'_>, &mut Vec<Emit>),
    ) {
        let now = self.engine.now();
        let mut out = std::mem::take(&mut self.scratch);
        let before = self.drops;
        callback(
            &mut self.plane,
            &mut PlaneCtx {
                now,
                rng: &mut self.rngs[node.index()],
                cost: &self.cost,
                profiler: self.profiler.as_deref_mut(),
                drops: &mut self.drops,
            },
            &mut out,
        );
        if self.drops != before {
            let counted = before.values().into_iter().zip(self.drops.values());
            for (reason, (was, is)) in DropReason::ALL.into_iter().zip(counted) {
                for _ in was..is {
                    self.observer.on_drop(node, reason, now);
                }
            }
        }
        self.apply(node, now, out);
    }

    /// Applies a callback's emits in push order, recycling the buffer.
    fn apply(&mut self, node: NodeId, now: SimTime, mut out: Vec<Emit>) {
        for emit in out.drain(..) {
            match emit {
                Emit::Send {
                    face,
                    packet,
                    compute,
                } => {
                    if self.profiler.is_some() {
                        let started = std::time::Instant::now();
                        self.transmit(node, face, packet, compute);
                        let ns = started.elapsed().as_nanos() as u64;
                        if let Some(p) = self.profiler.as_deref_mut() {
                            p.record_ns("link.transit", ns);
                        }
                    } else {
                        self.transmit(node, face, packet, compute);
                    }
                }
                Emit::Timeout { delay } => {
                    let key = self.next_key(node);
                    self.engine
                        .schedule_keyed(now + delay, key, NetEvent::Timeout { node });
                }
            }
        }
        self.scratch = out;
    }

    /// Transmits on a link: FIFO serialisation + propagation delay, after
    /// the sender's computation time. Everything read or written here —
    /// the sender's neighbour table, its busy lanes, the directed link's
    /// loss stream — belongs to the sender's shard; the receiver is only
    /// named, never consulted.
    fn transmit(&mut self, from: NodeId, out_face: FaceId, packet: Packet, compute: SimDuration) {
        let now = self.engine.now();
        let Some(&(to, spec)) = self.links.neighbors[from.index()].get(out_face.index() as usize)
        else {
            // Dangling face: drop.
            self.drop_packet(from, DropReason::DanglingFace, now);
            return;
        };
        // Administratively-down links carry nothing; checked before the
        // loss model so a downed link makes no loss draw.
        if self.faults.link_is_down(from, to) {
            self.drop_packet(from, DropReason::LinkDown, now);
            return;
        }
        // Edge defenses (token bucket, per-face cap) police the packet
        // before it takes the link. Enforced here — in the transmitting
        // shard — so limiter state never crosses a shard boundary; a
        // `None` defense costs exactly one branch.
        if let Some(d) = self.defense.as_mut() {
            if let Some(reason) = d.admit(from, to, now) {
                self.drop_packet(from, reason, now);
                return;
            }
        }
        // The loss model eats the packet before it reserves the link:
        // lost transmissions never appear in `on_schedule`/link load.
        if self.faults.loses(from, to) {
            self.drop_packet(from, DropReason::Lossy, now);
            return;
        }
        // The packet is definitely going onto the link: count it as
        // in-flight from here until delivery or a delivery-side drop.
        self.sent += 1;
        let size = wire_size(&packet);
        let ready = now + compute;
        let lane = &mut self.link_busy[from.index()];
        let slot = match lane.binary_search_by_key(&to, |&(peer, _)| peer) {
            Ok(i) => &mut lane[i].1,
            Err(i) => {
                lane.insert(i, (to, SimTime::ZERO));
                &mut lane[i].1
            }
        };
        let depart = ready.max(*slot);
        let serialize = spec.serialization_delay(size);
        *slot = depart + serialize;
        let arrival = depart + serialize + spec.latency;
        self.observer
            .on_schedule(from, to, size, depart, serialize, arrival);
        let key = self.next_key(from);
        self.route_to(
            to,
            arrival,
            key,
            Mail::Deliver {
                node: to,
                from,
                packet,
            },
        );
    }

    /// Re-attaches a mobile client to a uniformly random *other* access
    /// point: the client's single face now leads to the new AP (same
    /// wireless link spec) immediately; the new AP gains a face back when
    /// the attach signal arrives one propagation delay later (see
    /// [`NetEvent::Attach`]). The plane is notified so the node can
    /// refresh credentials and refill its window.
    fn perform_handover(&mut self, node: NodeId) {
        if self.access_points.len() < 2 {
            return;
        }
        let Some(&(current_ap, spec)) = self.links.neighbors[node.index()].first() else {
            return;
        };
        let new_ap = loop {
            let candidate = *self.rngs[node.index()].choose(&self.access_points);
            if candidate != current_ap {
                break candidate;
            }
        };
        // Client side: face 0 now points at the new AP.
        self.links.neighbors[node.index()][0] = (new_ap, spec);
        self.links.clear_faces(node);
        self.links.set_face_toward(node, new_ap, FaceId::new(0));
        // AP side: scheduled before the plane's refill sends, so the
        // attach is keyed (and therefore ordered) ahead of any packet
        // the client pushes onto the new radio link.
        let now = self.engine.now();
        let key = self.next_key(node);
        self.route_to(
            new_ap,
            now + spec.latency,
            key,
            Mail::Event(NetEvent::Attach {
                ap: new_ap,
                client: node,
                spec,
            }),
        );
        self.moves += 1;
        self.observer.on_handover(node, current_ap, new_ap, now);
        self.call_plane(node, |plane, ctx, out| plane.on_handover(node, ctx, out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_node_id_below_the_reserved_sources_is_keyable() {
        // Ids 0..=0xFF_FFFC: the last one is the sampler's neighbour.
        check_keyable(0xFF_FFFC + 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the 16777213 (0xFF_FFFD)")]
    fn a_node_id_of_a_reserved_source_is_rejected() {
        // Ids 0..=0xFF_FFFD: the last one would be the sampler's.
        check_keyable(0xFF_FFFD + 1);
    }
}
