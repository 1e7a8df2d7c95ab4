//! The plane harness is the only place that knows how a plane is
//! assembled, replicated, stitched and merged, and how an edge relays: a
//! mechanism is its routers' and providers' logic, and a run is one
//! function for any shard count.
//!
//! * A third, toy plane — written here against [`harness::Plane`] alone,
//!   with no build/run/shard code of its own, and no access point, FIB
//!   row, catalog or user reply handling either: the harness builds and
//!   runs those — gives identical merged transport totals and stitched
//!   node states at K ∈ {1, 2, 4}.
//! * Its node factory is asked for each router, provider and user by
//!   exactly one shard, and never for an access point, at
//!   K ∈ {1, 2, 3, 4, 8}; its report fold still sees every node, access
//!   points included, in node-id order.
//! * Shard-partition errors surface unchanged through the harness for
//!   both real planes.
//! * A manifest built at `shards = 1` carries the degenerate provenance
//!   (one shard, no cut, no epochs, per-shard vectors of one — the
//!   sequential bytes), and one built at `shards = 2` differs from it in
//!   the provenance keys and `wall_ms` only.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use tactic::scenario::Scenario;
use tactic_baselines::{BaselineSpec, Mechanism};
use tactic_experiments::opts::{RunOpts, Verbosity};
use tactic_experiments::plane::{run_job, PlaneId};
use tactic_experiments::runner::GridJob;
use tactic_ndn::face::FaceId;
use tactic_ndn::forwarder::{process_data, process_interest, InterestAction, Tables};
use tactic_ndn::packet::{Data, Interest, Packet, Payload};
use tactic_net::harness::{self, fan_out, Node, Plane, RunSpec, Shard, Station, World};
use tactic_net::{
    AttackDriver, AttackPlan, DefenseConfig, Emit, FaultPlan, NoopObserver, PlaneCtx,
    RequestPolicy, TransportReport, ZipfRequester,
};
use tactic_sim::cost::CostModel;
use tactic_sim::time::SimDuration;
use tactic_telemetry::{NoopProtocolObserver, ProtocolObserver, RunManifest};
use tactic_topology::fleet::FleetSpec;
use tactic_topology::graph::{NodeId, Role};
use tactic_topology::paper::{PaperTopology, TopologyChoice};
use tactic_topology::roles::TopologySpec;
use tactic_topology::shard::ShardError;

// ---- the toy plane: everything a new mechanism has to write ------------

/// Vanilla NDN forwarding, providers that answer anything, the shared
/// Zipf-window requester at the users; access points that stamp nothing.
/// (`FlipPlane` of
/// `crates/net/tests/plane_equivalence.rs`, made topology-agnostic.)
struct ToyPlane {
    topology: TopologyChoice,
    duration: SimDuration,
    /// [`Plane::build`] calls so far.
    builds: AtomicU32,
    /// Per node: how many of those calls constructed its state.
    constructed: Vec<AtomicU32>,
}

impl ToyPlane {
    fn new(topology: TopologyChoice, duration: SimDuration) -> ToyPlane {
        let spec = topology.spec();
        // Routers, providers, users, and one access point per edge router.
        let nodes = spec.routers() + spec.providers + spec.clients + spec.attackers;
        ToyPlane {
            topology,
            duration,
            builds: AtomicU32::new(0),
            constructed: (0..nodes + spec.edge_routers)
                .map(|_| AtomicU32::new(0))
                .collect(),
        }
    }

    fn small() -> ToyPlane {
        let spec = TopologySpec {
            core_routers: 6,
            edge_routers: 3,
            providers: 2,
            clients: 5,
            attackers: 0,
        };
        ToyPlane::new(TopologyChoice::Custom(spec), SimDuration::from_secs(4))
    }
}

/// A toy plane fields no attack fleet.
struct NoFleet;

impl AttackDriver for NoFleet {
    fn craft(&mut self) -> Interest {
        unreachable!("no node of the toy plane is a fleet node")
    }
}

/// What a toy run measures: the merged transport totals and one line of
/// final state per node.
#[derive(Debug, PartialEq)]
struct ToyReport {
    nodes: Vec<String>,
    events: u64,
    deliveries: u64,
    peak_pit: u64,
    peak_cs: u64,
}

impl Plane for ToyPlane {
    type Router = Tables;
    type Note = Vec<u8>;
    type Provider = u64; // Interests answered
    type User = ZipfRequester;
    type Driver = NoFleet;
    type Report = ToyReport;

    fn run_spec(&self) -> RunSpec {
        RunSpec {
            topology: self.topology,
            stream: 0x70_7E,
            duration: self.duration,
            objects: 4,
            chunks: 4,
            zipf_alpha: 0.7,
            mobility: None,
            cost: CostModel::free(),
            faults: FaultPlan::none(),
            sample_every: None,
            profile: false,
            attack: AttackPlan::none(),
            defense: DefenseConfig::none(),
        }
    }

    fn build(&self, shard: &Shard<'_>) -> Vec<Node<Self>> {
        let World { rng, topo, .. } = shard.world;
        self.builds.fetch_add(1, Ordering::Relaxed);
        assert_eq!(self.constructed.len(), topo.graph.node_count());
        let policy = Arc::new(RequestPolicy {
            catalog: shard.catalog.clone(),
            window: 3,
            timeout: SimDuration::from_secs(1),
            per_session_names: false,
            retransmit: None,
        });
        shard
            .nodes()
            .map(|node| {
                let state = match topo.graph.role(node) {
                    Role::CoreRouter | Role::EdgeRouter => Node::Router(Box::new(Tables::new(16))),
                    Role::Provider => Node::Provider(Box::new(0)),
                    // The harness builds access points.
                    Role::AccessPoint => return Node::Vacant,
                    Role::Client | Role::Attacker => Node::User(Box::new(ZipfRequester::new(
                        node.index() as u64,
                        true,
                        policy.clone(),
                        rng.fork(node.index() as u64),
                    ))),
                };
                self.constructed[node.index()].fetch_add(1, Ordering::Relaxed);
                state
            })
            .collect()
    }

    fn tables(router: &mut Tables) -> &mut Tables {
        router
    }

    fn on_packet<PO: ProtocolObserver>(
        &self,
        station: Station<'_, Self>,
        _node: NodeId,
        face: FaceId,
        packet: Packet,
        _proto: &mut PO,
        ctx: &mut PlaneCtx<'_>,
        out: &mut Vec<Emit>,
    ) {
        match (station, packet) {
            (Station::Router(t), Packet::Interest(i)) => {
                match process_interest(t, &i, face, ctx.now, Vec::new()) {
                    InterestAction::ReplyFromCache(d) => {
                        out.push(Emit::send(face, Packet::Data(d)))
                    }
                    InterestAction::Forward(f) => out.push(Emit::send(f, Packet::Interest(i))),
                    _ => {}
                }
            }
            (Station::Router(t), Packet::Data(d)) => {
                let pending = process_data(t, &d, ctx.now).downstream;
                fan_out(pending.iter().map(|rec| rec.face), d, Packet::Data, out);
            }
            (Station::Provider(answered), Packet::Interest(i)) => {
                *answered += 1;
                let reply = Data::new(i.name().clone(), Payload::Synthetic(256));
                out.push(Emit::send(face, Packet::Data(reply)));
            }
            _ => {}
        }
    }

    fn report(
        &self,
        nodes: Vec<Node<Self>>,
        peak_pit: u64,
        peak_cs: u64,
        transport: TransportReport,
    ) -> ToyReport {
        let nodes = nodes
            .iter()
            .enumerate()
            .map(|(id, node)| match node {
                Node::Router(t) => format!(
                    "router pit={} cs={} hits={}",
                    t.pit.total_records(),
                    t.cs.len(),
                    t.cs.hits()
                ),
                Node::Provider(answered) => format!("provider answered={answered}"),
                Node::User(r) => format!(
                    "user requested={} received={} latency={:?}",
                    r.requested, r.received, r.latency
                ),
                Node::Ap(_) => format!("ap {}", NodeId(id as u32)),
                Node::Fleet(..) | Node::Vacant => unreachable!("no fleet; no access point vacant"),
            })
            .collect();
        ToyReport {
            nodes,
            events: transport.events,
            deliveries: transport.deliveries,
            peak_pit,
            peak_cs,
        }
    }
}

// ---- what it gets for that ---------------------------------------------

#[test]
fn a_toy_plane_runs_byte_identically_at_any_shard_count() {
    let run = |shards| {
        harness::run(
            &ToyPlane::small(),
            9,
            shards,
            |_| NoopObserver,
            |_| NoopProtocolObserver,
        )
        .expect("nine routers fit four shards")
    };
    let (sequential, _, _, stats) = run(1);
    assert_eq!((stats.k, stats.epochs, stats.edge_cut), (1, 0, 0));
    assert_eq!(stats.per_shard_events, [sequential.events]);
    assert_eq!(stats.per_shard_peak_pit, [sequential.peak_pit]);
    assert!(
        sequential.deliveries > 100,
        "the toy network must carry real traffic: {sequential:?}"
    );
    assert!(sequential
        .nodes
        .iter()
        .any(|n| n.contains("hits=") && !n.contains("hits=0")));
    for shards in [2, 4] {
        let (report, observers, protos, stats) = run(shards);
        assert_eq!(sequential, report, "K={shards} diverged from one shard");
        assert_eq!(
            (observers.len(), protos.len(), stats.k),
            (shards, shards, shards)
        );
        assert!(stats.epochs > 0 && stats.cross_events > 0);
    }
}

#[test]
fn every_node_is_constructed_by_exactly_one_shard() {
    let fleet = FleetSpec::sized(2_000).to_table_spec();
    for (topology, millis) in [
        (TopologyChoice::Paper(PaperTopology::Topo1), 1_500),
        (TopologyChoice::Custom(fleet), 300),
    ] {
        let mut sequential = None;
        for shards in [1, 2, 3, 4, 8] {
            let plane = ToyPlane::new(topology, SimDuration::from_millis(millis));
            let (report, ..) = harness::run(
                &plane,
                11,
                shards,
                |_| NoopObserver,
                |_| NoopProtocolObserver,
            )
            .expect("both topologies have eight routers");
            assert_eq!(plane.builds.into_inner() as usize, shards);
            // All N nodes reach the report fold, in node-id order: an
            // access point's line carries its id.
            assert_eq!(report.nodes.len(), plane.constructed.len());
            // The factory builds every other node once; the harness
            // builds the access points.
            let twice: Vec<usize> = (0..plane.constructed.len())
                .filter(|&i| {
                    let once = u32::from(!report.nodes[i].starts_with("ap "));
                    plane.constructed[i].load(Ordering::Relaxed) != once
                })
                .collect();
            assert!(
                twice.is_empty(),
                "K={shards}: nodes {twice:?} were not constructed exactly once"
            );
            for (i, line) in report.nodes.iter().enumerate() {
                assert!(!line.starts_with("ap ") || *line == format!("ap {}", NodeId(i as u32)));
            }
            assert!(report.deliveries > 100, "K={shards}: {}", report.deliveries);
            let sequential = sequential.get_or_insert_with(|| format!("{report:?}"));
            assert_eq!(*sequential, format!("{report:?}"), "K={shards}");
        }
    }
}

#[test]
fn shard_errors_surface_unchanged_for_both_real_planes() {
    let mut scenario = Scenario::small();
    scenario.duration = SimDuration::from_secs(1);
    let routers = scenario.topology.spec().routers();
    let baseline = BaselineSpec::new(&scenario, Mechanism::ClientSideAc);
    fn error<P: Plane>(plane: &P, shards: usize) -> ShardError {
        harness::run(
            plane,
            42,
            shards,
            |_| NoopObserver,
            |_| NoopProtocolObserver,
        )
        .err()
        .expect("the shard count cannot fit")
    }
    for (zero, too_many) in [
        (error(&scenario, 0), error(&scenario, routers + 1)),
        (error(&baseline, 0), error(&baseline, routers + 1)),
    ] {
        assert_eq!(zero, ShardError::ZeroShards);
        assert_eq!(
            too_many,
            ShardError::TooManyShards {
                requested: routers + 1,
                routers,
            }
        );
    }
}

#[test]
fn one_shard_manifests_are_the_sequential_bytes_and_two_differ_in_provenance_only() {
    let mut scenario = Scenario::small();
    scenario.duration = SimDuration::from_secs(5);
    let job = GridJob {
        label: "plane_harness".into(),
        topology: 1,
        scenario_id: 7,
        run_idx: 0,
        scenario: &scenario,
    };
    for plane in [
        PlaneId::Tactic,
        PlaneId::Baseline(Mechanism::NoAccessControl),
    ] {
        let at = |shards| {
            let opts = RunOpts {
                shards: vec![shards],
                verbosity: Verbosity::Quiet,
                ..RunOpts::default()
            };
            let run = run_job(
                plane,
                &job,
                job.seed(),
                (0, 1),
                &opts,
                |_| NoopObserver,
                |_| NoopProtocolObserver,
            );
            let manifest = RunManifest {
                wall_ms: 0,
                ..run.manifest
            };
            (manifest, run.report.summary())
        };
        let (one, summary) = at(1);
        assert_eq!((one.shards, one.edge_cut, one.epochs), (1, 0, 0));
        assert_eq!(one.per_shard_events, [summary.events]);
        assert_eq!(one.per_shard_peak_queue, [summary.peak_queue_depth]);
        assert_eq!(one.per_shard_peak_pit, [summary.peak_pit_records]);
        assert_eq!(one.per_shard_peak_cs, [summary.peak_cs_entries]);
        assert!(one.sim_events > 0 && one.per_shard_peak_cs[0] > 0);

        let (mut two, _) = at(2);
        assert_eq!(two.shards, 2);
        assert!(two.epochs > 0 && two.edge_cut > 0);
        assert_eq!(two.per_shard_events.len(), 2);
        // Everything else is the one-shard line (`wall_ms` is pinned to
        // zero on both sides; the queue high-water mark is a per-engine
        // quantity and so provenance too).
        two.shards = one.shards;
        two.edge_cut = one.edge_cut;
        two.epochs = one.epochs;
        two.peak_queue_depth = one.peak_queue_depth;
        two.per_shard_events = one.per_shard_events.clone();
        two.per_shard_peak_queue = one.per_shard_peak_queue.clone();
        two.per_shard_peak_pit = one.per_shard_peak_pit.clone();
        two.per_shard_peak_cs = one.per_shard_peak_cs.clone();
        assert_eq!(one.to_json_line(), two.to_json_line(), "{}", plane.name());
    }
}
