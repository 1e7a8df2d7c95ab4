//! A shard that panics — while it builds its net, or in its plane in the
//! middle of an epoch — must fail the run: [`run_sharded`] panics on the
//! calling thread, naming the shard and carrying the message, instead of
//! leaving the coordinator and the surviving workers waiting for each
//! other forever.
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

/// Client (node 0, shard 0) and provider (node 1, shard 1) bounce one
/// packet over one cut link; the provider's plane gives up after
/// `provider_answers` replies.
struct Echo {
    provider_answers: u32,
}

impl NodePlane for Echo {
    fn on_start(&mut self, _node: NodeId, _ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {
        let first = Interest::new("/prov0/obj0/c0".parse().expect("static name"), 1);
        out.push(Emit::send(FaceId::new(0), Packet::Interest(first)));
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
            other => Packet::Interest(Interest::new(other.name().clone(), 1)),
        };
        out.push(Emit::send(face, reply));
    }
}

fn echo_net(topo: &Topology, shard: u32, provider_answers: u32) -> Net<Echo> {
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
    let spec = ShardSpec {
        k: 2,
        my_shard: shard,
        shard_of: vec![0, 1],
    };
    let plane = Echo { provider_answers };
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
    let mut graph = Graph::new();
    let client = graph.add_node(Role::Client);
    let provider = graph.add_node(Role::Provider);
    let spec = LinkSpec {
        bandwidth_bps: 10_000_000_000,
        latency: LATENCY,
    };
    graph.add_link(client, provider, spec);
    Topology {
        graph,
        core_routers: vec![],
        edge_routers: vec![],
        access_points: vec![],
        providers: vec![provider],
        clients: vec![client],
        attackers: vec![],
    }
}

/// Runs the two-shard echo on a thread of its own and returns what the
/// call panicked with (`None` if it returned).
///
/// # Panics
///
/// Panics if the call neither returns nor panics within ten seconds.
fn outcome_of(
    build: impl Fn(&Topology, u32) -> Net<Echo> + Send + Sync + 'static,
) -> Option<String> {
    let (done, watchdog) = mpsc::channel();
    std::thread::spawn(move || {
        let topo = echo_topology();
        let horizon = SimTime::ZERO + DURATION;
        let run = std::panic::AssertUnwindSafe(|| {
            run_sharded(2, Some(LATENCY), horizon, |shard| build(&topo, shard));
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
