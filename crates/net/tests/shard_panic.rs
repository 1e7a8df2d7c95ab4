//! A shard that panics — while it builds its net, or in its plane in the
//! middle of an epoch, shard 0 on the calling thread included — must fail
//! the run: [`run_sharded`] panics on the calling thread, naming the shard
//! and carrying the message, instead of leaving the surviving shards
//! waiting at the epoch barrier forever.
//!
//! Each case runs under a watchdog, so the hang this guards against fails
//! the test rather than the test run.

use std::sync::mpsc;
use std::time::Duration;

use tactic_ndn::face::FaceId;
use tactic_ndn::packet::{Data, Interest, Packet, Payload};
use tactic_net::fault::FaultPlan;
use tactic_net::{
    run_sharded, Emit, Links, Net, NetConfig, NodePlane, NoopObserver, PlaneCtx, ShardSpec,
};
use tactic_sim::cost::CostModel;
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_topology::graph::{Graph, LinkSpec, NodeId, Role};
use tactic_topology::roles::Topology;

const LATENCY: SimDuration = SimDuration::from_micros(100);
const DURATION: SimDuration = SimDuration::from_secs(2);

/// The client (node 0) bounces one packet off each provider (nodes 1..),
/// every node in a shard of its own, every link cut; a provider's plane
/// gives up after `provider_answers` replies, the client's after
/// `client_answers` Data.
struct Echo {
    provider_answers: u32,
    client_answers: u32,
    /// One per provider: the client's faces.
    faces: u32,
}

impl NodePlane for Echo {
    fn on_start(&mut self, _node: NodeId, _ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {
        for face in 0..self.faces {
            let first = Interest::new("/prov0/obj0/c0".parse().expect("static name"), 1);
            out.push(Emit::send(FaceId::new(face), Packet::Interest(first)));
        }
    }

    fn on_packet(
        &mut self,
        _node: NodeId,
        face: FaceId,
        packet: Packet,
        _ctx: &mut PlaneCtx<'_>,
        out: &mut Vec<Emit>,
    ) {
        let reply = match packet {
            Packet::Interest(i) => {
                assert!(self.provider_answers > 0, "the provider gave up");
                self.provider_answers -= 1;
                Packet::Data(Data::new(i.name().clone(), Payload::Synthetic(64)))
            }
            other => {
                assert!(self.client_answers > 0, "the client gave up");
                self.client_answers -= 1;
                Packet::Interest(Interest::new(other.name().clone(), 1))
            }
        };
        out.push(Emit::send(face, reply));
    }
}

fn echo_net(topo: &Topology, shard: u32, provider_answers: u32) -> Net<Echo> {
    let echo = Echo {
        provider_answers,
        client_answers: u32::MAX,
        faces: 1,
    };
    net(topo, shard, echo)
}

/// Shard `shard`'s instance: each node of `topo` is a shard of its own.
fn net(topo: &Topology, shard: u32, plane: Echo) -> Net<Echo> {
    let config = NetConfig {
        duration: DURATION,
        mobility: None,
        cost: CostModel::free(),
        faults: FaultPlan::none(),
        sample_every: None,
        profile: false,
        defense: None,
        churn: None,
    };
    let nodes = topo.graph.node_count();
    let spec = ShardSpec {
        k: nodes,
        my_shard: shard,
        shard_of: (0..nodes as u32).collect(),
    };
    let rng = Rng::seed_from_u64(1);
    Net::assemble_sharded(
        topo,
        Links::build(topo),
        plane,
        rng,
        config,
        NoopObserver,
        spec,
    )
}

fn echo_topology() -> Topology {
    star(1)
}

/// A client wired to `providers` providers.
fn star(providers: usize) -> Topology {
    let mut graph = Graph::new();
    let client = graph.add_node(Role::Client);
    let spec = LinkSpec {
        bandwidth_bps: 10_000_000_000,
        latency: LATENCY,
    };
    let providers = (0..providers)
        .map(|_| {
            let provider = graph.add_node(Role::Provider);
            graph.add_link(client, provider, spec);
            provider
        })
        .collect();
    Topology {
        graph,
        core_routers: vec![],
        edge_routers: vec![],
        access_points: vec![],
        providers,
        clients: vec![client],
        attackers: vec![],
    }
}

/// The three-shard echo: one client, two providers.
fn three_way(shard: u32, provider_answers: u32) -> Net<Echo> {
    let echo = Echo {
        provider_answers,
        client_answers: u32::MAX,
        faces: 2,
    };
    net(&star(2), shard, echo)
}

/// [`outcome`] of the two-shard echo.
fn outcome_of(
    build: impl Fn(&Topology, u32) -> Net<Echo> + Send + Sync + 'static,
) -> Option<String> {
    let topo = echo_topology();
    outcome(2, move |shard| build(&topo, shard))
}

/// Runs `k` shards built by `build` on a thread of its own and returns
/// what the call panicked with (`None` if it returned).
///
/// # Panics
///
/// Panics if the call neither returns nor panics within ten seconds.
fn outcome(k: usize, build: impl Fn(u32) -> Net<Echo> + Send + Sync + 'static) -> Option<String> {
    let (done, watchdog) = mpsc::channel();
    std::thread::spawn(move || {
        let horizon = SimTime::ZERO + DURATION;
        let run = std::panic::AssertUnwindSafe(|| {
            run_sharded(k, Some(LATENCY), horizon, &build);
        });
        let panic = std::panic::catch_unwind(run).err();
        let message = panic.map(|p| match p.downcast::<String>() {
            Ok(formatted) => *formatted,
            Err(p) => p.downcast_ref::<&str>().map_or("?", |s| s).to_string(),
        });
        let _ = done.send(message);
    });
    watchdog
        .recv_timeout(Duration::from_secs(10))
        .expect("a run with a dead shard must fail, not hang")
}

#[test]
fn a_healthy_run_returns() {
    assert_eq!(
        outcome_of(|topo, shard| echo_net(topo, shard, u32::MAX)),
        None
    );
}

#[test]
fn a_shard_panicking_in_its_build_closure_fails_the_run() {
    let message = outcome_of(|topo, shard| {
        assert_ne!(shard, 1, "router built");
        echo_net(topo, shard, u32::MAX)
    })
    .expect("the run must panic");
    assert!(
        message.contains("shard 1") && message.contains("router built"),
        "{message}"
    );
}

#[test]
fn a_shard_panicking_in_its_plane_mid_run_fails_the_run() {
    // Hundreds of epochs in, with the other shard mid-protocol.
    let message = outcome_of(|topo, shard| echo_net(topo, shard, 500)).expect("the run must panic");
    assert!(
        message.contains("shard 1") && message.contains("the provider gave up"),
        "{message}"
    );
}

#[test]
fn shard_zero_panicking_on_the_calling_thread_mid_run_fails_the_run() {
    let message = outcome_of(|topo, shard| {
        let echo = Echo {
            provider_answers: u32::MAX,
            client_answers: 500,
            faces: 1,
        };
        net(topo, shard, echo)
    })
    .expect("the run must panic");
    assert!(
        message.contains("shard 0") && message.contains("the client gave up"),
        "{message}"
    );
}

#[test]
fn a_healthy_three_shard_run_returns() {
    assert_eq!(outcome(3, |shard| three_way(shard, u32::MAX)), None);
}

#[test]
fn the_last_of_three_shards_panicking_mid_run_releases_the_two_waiting() {
    // Shards 0 and 1 finish each epoch at once and wait at the barrier
    // while shard 2 works; shard 2 dies hundreds of epochs in.
    let message = outcome(3, |shard| {
        let provider_answers = if shard == 2 { 500 } else { u32::MAX };
        three_way(shard, provider_answers)
    })
    .expect("the run must panic");
    assert!(
        message.contains("shard 2") && message.contains("the provider gave up"),
        "{message}"
    );
}
